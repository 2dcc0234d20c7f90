from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kaes.svr
from kaes.corpus import parse_asap_tsv
from kaes.errors import BinaryFormatError, KaesError, KernelMismatchError
from kaes.harness import ExperimentConfig, ScoringModel, load_model, save_model, train_model
from kaes.string_kernel import KernelMatrix
from kaes.svr import (
    SvrConfig,
    predict,
    train_nu_svr,
)

from oracles import dual_objective, smo_reference, solve_nu_svr_qp
from synthesis import make_corpus_tsv


def square_kernel(values, ids=None) -> KernelMatrix:
    values = np.asarray(values, dtype=float)
    ids = ids or tuple(f"d{i}" for i in range(values.shape[0]))
    return KernelMatrix(values=values, row_ids=tuple(ids), col_ids=tuple(ids))


def random_problem(rng, r, features=4, jitter=1e-9):
    x = rng.normal(size=(r, features))
    gram = x @ x.T + jitter * np.eye(r)
    y = rng.uniform(size=r)
    return square_kernel(gram), y


class TestTraining:
    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        kernel, _ = random_problem(rng, 12)
        y = np.full(12, 0.37)
        model = train_nu_svr(kernel, y, SvrConfig(c=10.0, nu=0.3))
        assert np.all(model.coefficients == 0.0)
        assert model.bias == pytest.approx(0.37)
        preds = predict(model, kernel)
        np.testing.assert_allclose(preds, 0.37)

    def test_objective_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(1)
        kernel, y = random_problem(rng, 20)
        cfg = SvrConfig(c=100.0, nu=0.3, kkt_tolerance=1e-6)
        model = train_nu_svr(kernel, y, cfg)
        _, _, oracle_obj = solve_nu_svr_qp(kernel.values, y, cfg.c, cfg.nu)
        smo_obj = dual_objective(kernel, y, model.coefficients)
        assert abs(smo_obj - oracle_obj) <= 1e-4 * max(1e-6, abs(oracle_obj))

    def test_nu_property_on_100_samples(self):
        rng = np.random.default_rng(2)
        r = 100
        kernel, y = random_problem(rng, r, features=6)
        cfg = SvrConfig(c=50.0, nu=0.25, kkt_tolerance=1e-8)
        model = train_nu_svr(kernel, y, cfg)
        bound = cfg.c / r
        support_fraction = np.count_nonzero(model.coefficients) / r
        bounded_fraction = np.count_nonzero(np.abs(model.coefficients) == bound) / r
        slack = 2.0 / r
        assert support_fraction >= cfg.nu - slack
        assert bounded_fraction <= cfg.nu + slack

    def test_equality_and_box_constraints(self):
        rng = np.random.default_rng(3)
        kernel, y = random_problem(rng, 40)
        cfg = SvrConfig(c=25.0, nu=0.4, kkt_tolerance=1e-8)
        model = train_nu_svr(kernel, y, cfg)
        coef = model.coefficients
        assert abs(coef.sum()) <= 1e-9 * cfg.c
        assert np.all(np.abs(coef) <= cfg.c / 40 + 0.0)  # exact clipping
        assert np.abs(coef).sum() <= cfg.c * cfg.nu + 1e-9 * cfg.c

    def test_objective_monotone(self):
        # The solver is deterministic, so stopping it after m updates gives
        # the iterate of update m of the full run; stepping m through every
        # update traces its objective (243 updates on this problem).
        rng = np.random.default_rng(4)
        kernel, y = random_problem(rng, 16)
        cfg = SvrConfig(c=30.0, nu=0.5, kkt_tolerance=1e-7)
        model = train_nu_svr(kernel, y, cfg)
        assert model.converged and model.iterations > 100
        objectives = [
            dual_objective(kernel, y, train_nu_svr(
                kernel, y, replace(cfg, max_iterations=m)).coefficients)
            for m in range(model.iterations + 1)
        ]
        assert objectives[-1] == dual_objective(kernel, y, model.coefficients)
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-12)

    def test_non_symmetric_kernel_rejected(self):
        values = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(KernelMismatchError, match="symmetric"):
            train_nu_svr(square_kernel(values), np.zeros(2))

    def test_rectangular_kernel_rejected(self):
        values = np.ones((2, 3))
        kernel = KernelMatrix(values=values, row_ids=("a", "b"), col_ids=("x", "y", "z"))
        with pytest.raises(KernelMismatchError):
            train_nu_svr(kernel, np.zeros(2))

    def test_max_iterations_flags_model(self):
        rng = np.random.default_rng(5)
        kernel, y = random_problem(rng, 30)
        cfg = SvrConfig(c=30.0, nu=0.5, kkt_tolerance=1e-10, max_iterations=3)
        model = train_nu_svr(kernel, y, cfg)
        assert not model.converged
        assert model.iterations == 3

    def test_empty_kernel_rejected(self):
        with pytest.raises(KaesError, match="empty"):
            train_nu_svr(square_kernel(np.zeros((0, 0))), np.zeros(0))

    def test_bad_config(self):
        with pytest.raises(KaesError):
            SvrConfig(c=-1.0)
        with pytest.raises(KaesError):
            SvrConfig(nu=0.0)

    @pytest.mark.parametrize("field, value", [
        ("c", "5"), ("c", True), ("c", None), ("nu", None), ("nu", True), ("nu", "0.5"),
        ("kkt_tolerance", "x"), ("kkt_tolerance", False),
    ])
    def test_setting_that_is_not_a_number(self, field, value):
        with pytest.raises(KaesError, match=f"^{field} must be a number, got {value!r}$"):
            SvrConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = SvrConfig(c=np.float32(5), nu=np.float64(0.5), kkt_tolerance=np.float64(1e-3),
                        max_iterations=np.uint32(9))
        assert (cfg.c, cfg.nu, cfg.max_iterations) == (5.0, 0.5, 9)

    @pytest.mark.parametrize("cap", [100.0, True, "100", None, -1, 2**64])
    def test_bad_max_iterations(self, cap):
        # The cap is documented as an integer in [0, 2**64): a float, bool,
        # string, None or out-of-range integer is rejected.
        with pytest.raises(KaesError, match="max_iterations"):
            SvrConfig(max_iterations=cap)

    def test_numpy_integer_max_iterations_saves(self):
        cfg = SvrConfig(max_iterations=np.int64(50))
        model = train_nu_svr(square_kernel(np.eye(3) + 0.5), np.array([0.1, 0.5, 0.9]), cfg)
        buf = io.BytesIO()
        save_svr(model, buf)
        assert load_svr(io.BytesIO(buf.getvalue())).iterations == model.iterations

    def test_epsilon_tube_on_training_rows(self):
        rng = np.random.default_rng(6)
        kernel, y = random_problem(rng, 30, features=8)
        cfg = SvrConfig(c=200.0, nu=0.5, kkt_tolerance=1e-8)
        model = train_nu_svr(kernel, y, cfg)
        preds = predict(model, kernel)
        bound = cfg.c / 30
        not_at_bound = np.abs(model.coefficients) < bound
        residuals = np.abs(preds - y)[not_at_bound]
        assert np.all(residuals <= model.epsilon_star + cfg.kkt_tolerance + 1e-9)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_same_as_reference(values, y, cfg, refresh_interval=1 << 16):
    model = train_nu_svr(square_kernel(values), y, cfg)
    coefficients, bias, epsilon_star, iterations, converged = smo_reference(
        values, y, cfg.c, cfg.nu, cfg.kkt_tolerance, cfg.max_iterations, refresh_interval)
    assert bits(model.coefficients) == bits(coefficients)
    assert bits(model.bias) == bits(bias)
    assert bits(model.epsilon_star) == bits(epsilon_star)
    assert (model.iterations, model.converged) == (iterations, converged)
    return model


@st.composite
def smo_problems(draw):
    """A PSD training kernel, targets and a solver config.

    Integer features and score-like targets make ties among kernel entries
    and gradients, so the first-index rule of the pair selection matters.
    The kernel is exactly symmetric or off by up to half the asymmetry
    (1e-12 of its largest entry) that training accepts.
    """
    r = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = draw(st.integers(1, 8))
    if draw(st.booleans()):
        x = rng.integers(-2, 3, size=(r, features)).astype(float)
    else:
        x = rng.normal(size=(r, features))
    gram = x @ x.T
    values = np.triu(gram) + np.triu(gram, 1).T
    asymmetry = draw(st.sampled_from([0.0, 1e-14, 0.5e-12]))
    values += np.triu(rng.uniform(-1.0, 1.0, (r, r)), 1) * asymmetry * max(1.0, np.abs(values).max())
    targets = draw(st.sampled_from(["scores", "uniform", "constant"]))
    if targets == "constant":
        y = np.full(r, draw(st.floats(-10.0, 10.0)))
    elif targets == "uniform":
        y = rng.uniform(size=r)
    else:
        y = rng.integers(2, 13, size=r) / 12.0
    cfg = SvrConfig(
        c=10.0 ** draw(st.floats(-6.0, 9.0)),
        nu=draw(st.floats(0.0, 1.0, exclude_min=True)),
        kkt_tolerance=10.0 ** draw(st.floats(-9.0, -1.0)),
        max_iterations=draw(st.integers(0, 2000)),
    )
    return values, y, cfg


class TestReferenceLoop:
    """The solver repeats the arithmetic of the reference SMO loop exactly."""

    @settings(max_examples=500, deadline=None)
    @given(problem=smo_problems())
    def test_bit_identical_to_reference(self, problem):
        assert_same_as_reference(*problem)

    @pytest.mark.parametrize("interval", [1, 7])
    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_drift_refresh_bit_identical(self, monkeypatch, interval, seed):
        # The refresh recomputes u = K (a - a*) every _REFRESH_INTERVAL
        # updates; at its real 2**16 no fit in these tests reaches it.
        rng = np.random.default_rng(seed)
        kernel, y = random_problem(rng, 30)
        cfg = SvrConfig(c=30.0, nu=0.5, kkt_tolerance=1e-7)
        unrefreshed = smo_reference(kernel.values, y, cfg.c, cfg.nu, cfg.kkt_tolerance,
                                    cfg.max_iterations)
        monkeypatch.setattr(kaes.svr, "_REFRESH_INTERVAL", interval)
        model = assert_same_as_reference(kernel.values, y, cfg, refresh_interval=interval)
        assert model.iterations > 2 * interval
        assert bits(model.coefficients) != bits(unrefreshed[0])  # the refresh changed the run


class TestAgainstLibsvm:
    """The scaled formulation equals the reference dual solver at C = c/r."""

    def test_predictions_match_reference(self):
        sklearn = pytest.importorskip("sklearn.svm")
        rng = np.random.default_rng(7)
        r = 60
        # Full-rank Gram: first-order pair selection converges quickly here,
        # so the tight tolerance needed for a close match stays cheap.
        kernel, y = random_problem(rng, r, features=120, jitter=1e-6)
        c, nu = 80.0, 0.35
        model = train_nu_svr(kernel, y, SvrConfig(c=c, nu=nu, kkt_tolerance=1e-8))
        reference = sklearn.NuSVR(kernel="precomputed", C=c / r, nu=nu, tol=1e-10)
        reference.fit(kernel.values, y)
        ours = predict(model, kernel)
        theirs = reference.predict(kernel.values)
        np.testing.assert_allclose(ours, theirs, atol=5e-4)

    def test_coefficients_match_reference(self):
        sklearn = pytest.importorskip("sklearn.svm")
        rng = np.random.default_rng(8)
        r = 40
        kernel, y = random_problem(rng, r, features=3)
        c, nu = 20.0, 0.5
        model = train_nu_svr(kernel, y, SvrConfig(c=c, nu=nu, kkt_tolerance=1e-9))
        reference = sklearn.NuSVR(kernel="precomputed", C=c / r, nu=nu, tol=1e-10)
        reference.fit(kernel.values, y)
        ref_coef = np.zeros(r)
        ref_coef[reference.support_] = reference.dual_coef_.ravel()
        np.testing.assert_allclose(model.coefficients, ref_coef, atol=1e-5)


class TestPredict:
    def _fit(self, rng, r=20):
        kernel, y = random_problem(rng, r)
        model = train_nu_svr(kernel, y, SvrConfig(c=20.0, nu=0.3))
        return kernel, y, model

    def test_zero_kernel_row_gives_bias(self):
        rng = np.random.default_rng(9)
        kernel, y, model = self._fit(rng)
        zero_block = KernelMatrix(values=np.zeros((1, 20)), row_ids=("t0",), col_ids=kernel.col_ids)
        assert predict(model, zero_block)[0] == pytest.approx(model.bias)

    def test_row_permutation_permutes_output(self):
        rng = np.random.default_rng(10)
        kernel, y, model = self._fit(rng)
        block = KernelMatrix(
            values=rng.normal(size=(5, 20)),
            row_ids=tuple(f"t{i}" for i in range(5)),
            col_ids=kernel.col_ids,
        )
        perm = [3, 1, 4, 0, 2]
        permuted = KernelMatrix(
            values=block.values[perm],
            row_ids=tuple(block.row_ids[i] for i in perm),
            col_ids=block.col_ids,
        )
        np.testing.assert_array_equal(predict(model, permuted), predict(model, block)[perm])

    def test_column_misalignment_rejected(self):
        rng = np.random.default_rng(11)
        kernel, y, model = self._fit(rng)
        shuffled = tuple(reversed(kernel.col_ids))
        bad = KernelMatrix(values=np.zeros((1, 20)), row_ids=("t",), col_ids=shuffled)
        with pytest.raises(KernelMismatchError, match="not aligned"):
            predict(model, bad)

    def test_support_only_block_against_a_full_fit_rejected(self):
        rng = np.random.default_rng(12)
        kernel, y, model = self._fit(rng)
        support = model.support_ids
        assert 0 < len(support) < len(model.train_ids)
        dropped = next(eid for eid in model.train_ids if eid not in support)
        with pytest.raises(KernelMismatchError, match=f"{dropped!r}"):
            predict(model, kernel.take(kernel.row_ids[:4], support))

    @pytest.mark.parametrize("cols, detail", [
        (("d0", "d1", "x", "d3"), "'x' vs 'd2'"),
        (("d0", "d1", "d2"), "<missing> vs 'd3'"),
        (("d0", "d1", "d2", "d3", "d4"), "'d4' vs <missing>"),
    ])
    def test_misalignment_names_the_first_differing_id(self, cols, detail):
        kernel, y = random_problem(np.random.default_rng(14), 4)
        model = train_nu_svr(kernel, y)
        block = KernelMatrix(values=np.zeros((1, len(cols))), row_ids=("t",), col_ids=cols)
        with pytest.raises(KernelMismatchError, match=f"training rows \\({detail}\\)$"):
            predict(model, block)


def save_svr(model, buf) -> None:
    """Write the support rows of ``model`` as the SVR record of a hisk model
    file; the support ids stand in for the support texts."""
    kept = model.support_mask
    support = replace(model, coefficients=model.coefficients[kept], train_ids=model.support_ids)
    save_model(ScoringModel(support, "hisk", 1, 15, None, None, support.train_ids, None), buf)


def load_svr(buf):
    return load_model(buf).svr


class TestModelIO:
    def test_round_trip(self):
        essays = parse_asap_tsv(make_corpus_tsv(15, seed=13))
        cfg = ExperimentConfig(mode="in-domain", data_path="unread.tsv", ngram_min=2,
                               ngram_max=4, svr=SvrConfig(c=12.5, nu=0.2, kkt_tolerance=1e-5,
                                                          max_iterations=123456))
        model = train_model(cfg, essays)
        assert 0 < len(model.svr.train_ids) < len(essays)
        buf = io.BytesIO()
        save_model(model, buf)
        loaded = load_model(io.BytesIO(buf.getvalue()))
        saved, back = vars(model.svr).copy(), vars(loaded.svr).copy()
        assert back.pop("coefficients").tobytes() == saved.pop("coefficients").tobytes()
        assert back == saved
        assert {**vars(loaded), "svr": None} == {**vars(model), "svr": None}

    def test_malformed_files_raise_binary_format_error_with_offset(self):
        kernel = square_kernel(np.eye(3) + 0.5, ids=("a", "b", "cc"))
        model = train_nu_svr(kernel, np.array([0.1, 0.5, 0.9]))
        buf = io.BytesIO()
        save_svr(model, buf)
        data = buf.getvalue()
        id_at = data.index(b"\x02\x00\x00\x00cc") + 4  # the id, before its text
        cases = [(data[:n], n) for n in range(len(data))]
        cases.append((data[:id_at] + b"\xff\xfe" + data[id_at + 2:], id_at))
        for case, at in cases:
            with pytest.raises(BinaryFormatError) as info:
                load_svr(io.BytesIO(case))
            assert info.value.offset is not None and 0 <= info.value.offset <= at
        assert info.value.offset == id_at
