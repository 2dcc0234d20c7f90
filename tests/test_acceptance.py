"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 9 reproduces published full-scale results and needs the external
ASAP training TSV plus the pre-trained 300-dimensional embeddings; point
KAES_ASAP_TSV and KAES_EMBEDDINGS at them to enable it (expect hours of
runtime).  Everything else runs at desk scale.
"""
from __future__ import annotations

import os
import time

import numpy as np
import pytest

from kaes.boswe import boswe_kernel_matrix, fit_codebook
from kaes.corpus import ScoreRange
from kaes.embeddings import EmbeddingModel
from kaes.fusion import sum_kernels
from kaes.harness import ExperimentConfig, emit_report, run_cross_domain, run_in_domain
from kaes.metrics import qwk
from kaes.string_kernel import kernel_matrix, normalize_kernel, self_similarities
from kaes.svr import SvrConfig, train_nu_svr

from oracles import (
    FeatureMatrix,
    concat_features,
    dual_objective,
    linear_gram,
    naive_hisk,
    qwk_direct,
    solve_nu_svr_qp,
)
from synthesis import make_corpus_tsv, make_embeddings_bytes

ALPHABET = list("abc ")


def random_string(rng, max_len=30) -> str:
    return "".join(rng.choice(ALPHABET, size=rng.integers(0, max_len + 1)))


def min_eig_ok(values: np.ndarray) -> bool:
    return np.linalg.eigvalsh(values).min() >= -1e-8 * np.trace(values)


def test_criterion_1_hisk_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(200):
        x, y = random_string(rng), random_string(rng)
        n_max = int(rng.integers(1, 6))
        ours = kernel_matrix([x], [y], n_min=1, n_max=n_max).values[0, 0]
        assert ours == naive_hisk(x, y, 1, n_max)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\n[criterion 1] PASS: 200 random pairs match the substring oracle "
          f"exactly ({elapsed:.2f}s)")


def test_criterion_2_blend_additivity():
    rng = np.random.default_rng(102)
    strings = [random_string(rng) for _ in range(50)]
    for i, x in enumerate(strings):
        y = strings[(i + 1) % len(strings)]
        blended = kernel_matrix([x], [y], n_min=1, n_max=5).values[0, 0]
        per_length = sum(
            kernel_matrix([x], [y], n_min=n, n_max=n).values[0, 0] for n in range(1, 6)
        )
        assert blended == per_length
    print("\n[criterion 2] PASS: blended [1,5] kernel equals the sum of the five "
          "fixed-length kernels on 50 strings")


def test_criterion_3_psd_suites():
    rng = np.random.default_rng(103)
    emb = EmbeddingModel(
        dim=4,
        vocab={f"w{i}": i for i in range(12)},
        vectors=rng.normal(size=(12, 4)).astype(np.float32),
    )
    codebook = fit_codebook(emb.vectors, k=4, seed=0)
    for trial in range(20):
        n_docs = int(rng.integers(2, 13))
        texts = [random_string(rng, max_len=40) + "x" for _ in range(n_docs)]
        raw = kernel_matrix(texts, n_min=1, n_max=5)
        own = self_similarities(texts, 1, 5)
        normalized = normalize_kernel(raw, own, own)
        docs = [codebook.assign_batch(emb.vectors[rng.integers(0, len(emb.vocab),
                                                                size=rng.integers(1, 15))])
                for _ in range(n_docs)]
        boswe = boswe_kernel_matrix(docs, docs, codebook.k, normalized.row_ids,
                                    normalized.col_ids)
        fused = sum_kernels(normalized, boswe)
        for kind, matrix in (("hisk-raw", raw), ("hisk-normalized", normalized),
                             ("boswe", boswe), ("fused", fused)):
            assert min_eig_ok(matrix.values), f"trial {trial}: {kind} not PSD"
    print("\n[criterion 3] PASS: 20 random Gram matrices PSD for all four kinds")


def test_criterion_4_fusion_identity():
    rng = np.random.default_rng(104)
    for _ in range(20):
        r = int(rng.integers(1, 21))
        m1, m2 = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        ids = tuple(f"d{i}" for i in range(r))
        x1 = FeatureMatrix(ids=ids, values=rng.normal(size=(r, m1)))
        x2 = FeatureMatrix(ids=ids, values=rng.normal(size=(r, m2)))
        summed = sum_kernels(linear_gram(x1), linear_gram(x2)).values
        concatenated = linear_gram(concat_features(x1, x2)).values
        assert np.abs(summed - concatenated).max() <= 1e-10
    print("\n[criterion 4] PASS: kernel summation equals concatenated-feature Gram "
          "on 20 random pairs (1e-10)")


def test_criterion_5_nu_svr_oracle():
    rng = np.random.default_rng(105)
    start = time.monotonic()
    from kaes.string_kernel import KernelMatrix

    for trial in range(25):
        r = int(rng.integers(8, 26))
        x = rng.normal(size=(r, int(rng.integers(2, 7))))
        gram = x @ x.T + 1e-9 * np.eye(r)
        y = rng.uniform(size=r)
        c = float(rng.choice([10.0, 100.0, 1000.0]))
        nu = float(rng.choice([0.1, 0.2, 0.3, 0.5]))
        kernel = KernelMatrix(values=gram, row_ids=tuple(map(str, range(r))),
                              col_ids=tuple(map(str, range(r))))
        cfg = SvrConfig(c=c, nu=nu, kkt_tolerance=1e-5)
        model = train_nu_svr(kernel, y, cfg)
        _, _, oracle_obj = solve_nu_svr_qp(gram, y, c, nu)
        ours = dual_objective(kernel, y, model.coefficients)
        assert abs(ours - oracle_obj) <= 1e-4 * max(1e-6, abs(oracle_obj)), (
            f"trial {trial}: objective {ours} vs oracle {oracle_obj}"
        )
        bound = c / r
        slack = 2.0 / r
        support_fraction = np.count_nonzero(model.coefficients) / r
        bounded_fraction = np.count_nonzero(np.abs(model.coefficients) == bound) / r
        assert support_fraction >= nu - slack, f"trial {trial}: support {support_fraction}"
        assert bounded_fraction <= nu + slack, f"trial {trial}: bounded {bounded_fraction}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"\n[criterion 5] PASS: 25 problems within 1e-4 of the projected-gradient "
          f"oracle, nu-property bounds hold ({elapsed:.2f}s)")


def test_criterion_6_qwk_fixtures():
    assert qwk([2, 5, 7], [2, 5, 7], ScoreRange(2, 12)).kappa == 1.0

    examples = [
        ([0, 0, 1, 1], [0, 1, 0, 1], ScoreRange(0, 1)),
        ([0, 1, 2], [2, 1, 0], ScoreRange(0, 2)),
        ([1, 2, 3, 3], [1, 1, 3, 2], ScoreRange(0, 4)),
    ]
    for pred, gold, score_range in examples:
        ours = qwk(pred, gold, score_range).kappa
        oracle = qwk_direct(pred, gold, score_range.min, score_range.max)
        assert abs(ours - oracle) <= 1e-12
    print("\n[criterion 6] PASS: perfect agreement is exactly 1.0; fixtures match "
          "the direct-formula oracle to 1e-12")


@pytest.fixture(scope="module")
def synthetic_300(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept")
    (tmp / "data.tsv").write_bytes(make_corpus_tsv(300, seed=77))
    (tmp / "emb.bin").write_bytes(make_embeddings_bytes(seed=77))
    return tmp


def _synthetic_cfg(tmp, **overrides) -> ExperimentConfig:
    defaults = dict(
        mode="in-domain",
        representation="fused",
        data_path=str(tmp / "data.tsv"),
        prompt=1,
        embeddings_path=str(tmp / "emb.bin"),
        k=8,
        repetitions=1,
        seed=19,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_criterion_7_synthetic_smoke(synthetic_300):
    start = time.monotonic()
    table = run_in_domain(_synthetic_cfg(synthetic_300))
    elapsed = time.monotonic() - start
    (cell,) = table.cells
    assert cell.failed is None
    assert cell.n_runs == 5
    assert cell.mean >= 0.8, f"mean QWK {cell.mean}"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"\n[criterion 7] PASS: fused pipeline mean QWK {cell.mean:.3f} >= 0.8 "
          f"over 5 folds on 300 synthetic essays ({elapsed:.2f}s)")


def test_criterion_8_determinism(synthetic_300, tmp_path):
    cfg = _synthetic_cfg(synthetic_300)
    first = emit_report(run_in_domain(cfg), "text")
    second = emit_report(run_in_domain(cfg), "text")
    assert first == second, "two same-seed runs differ"

    cache = tmp_path / "cache"
    cached_cfg = _synthetic_cfg(synthetic_300, cache_dir=str(cache))
    cold = emit_report(run_in_domain(cached_cfg), "text")
    assert list(cache.glob("hisk_*.km")), "cache was not populated"
    warm = emit_report(run_in_domain(cached_cfg), "text")
    assert warm == cold, "warm-cache run differs from cold"
    assert cold == first, "cached run differs from uncached"
    print("\n[criterion 8] PASS: same-seed reruns and warm-cache reruns are "
          "byte-identical")


ASAP_PATH = os.environ.get("KAES_ASAP_TSV")
EMBEDDINGS_PATH = os.environ.get("KAES_EMBEDDINGS")


@pytest.mark.skipif(
    not (ASAP_PATH and EMBEDDINGS_PATH),
    reason="conditional reproduction needs KAES_ASAP_TSV and KAES_EMBEDDINGS "
    "pointing at the external ASAP training TSV and the pre-trained "
    "300-dimensional embeddings; expect hours of runtime",
)
def test_criterion_9_conditional_reproduction(tmp_path):
    cache = str(tmp_path / "cache")

    def full_cfg(representation):
        return ExperimentConfig(
            mode="in-domain",
            representation=representation,
            data_path=ASAP_PATH,
            prompt=None,  # all 8 prompts
            embeddings_path=EMBEDDINGS_PATH,
            cache_dir=cache,
            seed=13,
        )

    hisk_table = run_in_domain(full_cfg("hisk"))
    hisk_overall = hisk_table.overall()
    assert hisk_overall == pytest.approx(0.780, abs=0.02), f"hisk overall {hisk_overall}"

    fused_table = run_in_domain(full_cfg("fused"))
    fused_overall = fused_table.overall()
    assert fused_overall == pytest.approx(0.785, abs=0.02), f"fused overall {fused_overall}"

    for table in (hisk_table, fused_table):
        for cell in table.cells:
            assert cell.failed is None
            assert cell.std is not None and cell.std < 0.002, (
                f"prompt {cell.key}: std {cell.std}"
            )

    cross_cfg = ExperimentConfig(
        mode="cross-domain",
        representation="fused",
        data_path=ASAP_PATH,
        source=5,
        target=6,
        nt=(0,),
        embeddings_path=EMBEDDINGS_PATH,
        cache_dir=cache,
        seed=13,
    )
    cross_table = run_cross_domain(cross_cfg)
    (cell,) = cross_table.cells
    assert cell.mean == pytest.approx(0.728, abs=0.03), f"5->6 n_t=0 {cell.mean}"
    print(f"\n[criterion 9] PASS: hisk overall {hisk_overall:.3f} (target 0.780), "
          f"fused overall {fused_overall:.3f} (target 0.785), "
          f"5->6 fused n_t=0 {cell.mean:.3f} (target 0.728)")
