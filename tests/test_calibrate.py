"""Temperature scaling and dataset-level recovery."""

import math
import tracemalloc

import numpy as np
import pytest

from focal_calib import (
    CLAMP_EPS,
    DomainError,
    PredictionSet,
    ScoreKind,
    apply_psi_dataset,
    apply_temperature,
    default_distribution,
    error_rate,
    fit_temperature,
    recover_posterior_rows,
    scale_dataset,
    softmax,
)
from focal_calib import calibrate
from focal_calib.calibrate import T_MAX, T_MIN


class TestApplyTemperature:
    def test_identity_logits(self):
        np.testing.assert_allclose(apply_temperature([0.0, 0.0], 1.0), [0.5, 0.5], atol=1e-15)

    def test_high_temperature_flattens_to_uniform(self):
        out = apply_temperature([3.0, -1.0, 0.5], 1e6)
        np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-6)

    def test_argmax_never_changes(self):
        rng = np.random.default_rng(0)
        for t in (0.5, 1.0, 2.0):
            logits = rng.normal(0, 3, size=(50, 4))
            before = logits.argmax(axis=1)
            after = apply_temperature(logits, t).argmax(axis=1)
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            apply_temperature([1.0, 2.0], t)


def _logit_set(scale, n=50_000, seed=11):
    dist = default_distribution()
    x, y = dist.sample(n, seed)
    logits = scale * np.log(np.clip(dist.posterior(x), 1e-300, None))
    return PredictionSet(logits, y, ScoreKind.LOGITS)


class TestFitTemperature:
    def test_well_calibrated_logits_fit_near_one(self):
        fit = fit_temperature(_logit_set(1.0))
        assert abs(fit.temperature - 1.0) < 0.05

    def test_doubled_logits_fit_near_two(self):
        fit = fit_temperature(_logit_set(2.0))
        assert abs(fit.temperature - 2.0) < 0.1

    def test_never_worse_than_unit_temperature(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            logits = rng.normal(0, 2, size=(200, 3))
            labels = rng.integers(1, 4, size=200)
            preds = PredictionSet(logits, labels, ScoreKind.LOGITS)
            for gamma in (0.0, 2.0):
                fit = fit_temperature(preds, gamma)
                assert fit.achieved <= fit.baseline

    def test_focal_objective_runs(self):
        fit = fit_temperature(_logit_set(1.0, n=2000), 2.0)
        assert fit.gamma == 2.0
        assert fit.temperature > 0

    def test_probability_rows_accepted_via_log(self):
        rng = np.random.default_rng(13)
        scores = rng.dirichlet(np.ones(3), size=100)
        preds = PredictionSet(scores, rng.integers(1, 4, size=100))
        fit = fit_temperature(preds)
        assert fit.achieved <= fit.baseline

    def test_flat_objective_falls_back_to_unit_temperature(self):
        # equal logits within each row: every temperature ties with t == 1
        logits = np.repeat(np.arange(40.0)[:, None], 3, axis=1)
        preds = PredictionSet(logits, np.arange(40) % 3 + 1, ScoreKind.LOGITS)
        for gamma in (0.0, 2.0):
            fit = fit_temperature(preds, gamma)
            assert fit.temperature == 1.0
            assert fit.achieved == fit.baseline

    def test_scale_dataset_roundtrip(self):
        preds = _logit_set(2.0, n=500)
        scaled = scale_dataset(preds, 2.0)
        assert scaled.kind is ScoreKind.PROBABILITIES
        np.testing.assert_allclose(scaled.scores.sum(axis=1), 1.0, atol=1e-12)

    def test_scale_dataset_holds_two_copies(self):
        # softmax takes exp and divides in place on its one shifted copy;
        # the result equals the shift / exp / divide written out
        rng = np.random.default_rng(22)
        logits = rng.normal(0.0, 3.0, size=(50_000, 10))
        preds = PredictionSet(logits, rng.integers(1, 11, 50_000), ScoreKind.LOGITS)
        tracemalloc.start()
        try:
            scaled = scale_dataset(preds, 1.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arr = logits / 1.7
        shifted = arr - arr.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        np.testing.assert_array_equal(scaled.scores, e / e.sum(axis=1, keepdims=True))
        assert peak < 2.2 * logits.nbytes


# ---------------------------------------------------------------------------
# Reference temperature fit: golden section on t, as the fit was first written


def _reference_objective(logits, labels, t, gamma):
    probs = apply_temperature(logits, t)
    label_p = np.clip(probs[np.arange(len(labels)), labels - 1], CLAMP_EPS, 1.0)
    return float(-((1.0 - label_p) ** gamma * np.log(label_p)).sum())


def _golden_reference(preds, gamma):
    """(t, objective) from a golden-section search of [T_MIN, T_MAX] to 1e-6."""
    logits = calibrate._as_logits(preds)

    def f(t):
        return _reference_objective(logits, preds.labels, t, gamma)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = T_MIN, T_MAX
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-6:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


def _nll_slope(logits, labels, t):
    # t^2 * d NLL / dt = sum (z_y - E_p z) at p = softmax(z / t)
    p = softmax(logits / t)
    return float((logits[np.arange(len(labels)), labels - 1] - (p * logits).sum(axis=1)).sum())


def _tempered_labels(rng, logits, t):
    p = softmax(logits / t)
    below = np.cumsum(p, axis=1) < rng.random(len(p))[:, None]
    return np.minimum(below.sum(axis=1) + 1, p.shape[1])


def _fit_corpus():
    """name -> (prediction set, where the optimum lies: "interior", T_MIN or T_MAX)."""
    dist = default_distribution()
    x, y = dist.sample(4000, 31)
    log_post = np.log(np.clip(dist.posterior(x), 1e-300, None))
    corpus = {
        f"posterior_x{scale}": (PredictionSet(scale * log_post, y, ScoreKind.LOGITS), "interior")
        for scale in (0.5, 1.0, 2.0)
    }
    rng = np.random.default_rng(32)
    # 10-class logits made as the benchmark makes them: N(0, 2), a bump of 5
    # on one class, labels drawn from softmax(z / 1.8)
    z = rng.normal(0.0, 2.0, (20_000, 10))
    z[np.arange(20_000), rng.integers(0, 10, 20_000)] += 5.0
    labels = _tempered_labels(rng, z, 1.8)
    corpus["bench_k10"] = (PredictionSet(z, labels, ScoreKind.LOGITS), "interior")
    z = rng.normal(0.0, 1.0, (2000, 4))
    corpus["separable"] = (PredictionSet(z, z.argmax(axis=1) + 1, ScoreKind.LOGITS), T_MIN)
    corpus["anti_separable"] = (PredictionSet(z, z.argmin(axis=1) + 1, ScoreKind.LOGITS), T_MAX)
    corpus["probabilities"] = (PredictionSet(softmax(2.0 * log_post), y), "interior")
    # label probabilities on the CLAMP_EPS floor at t == 1, where the slope
    # cannot see them: all of them, or those of the ~3/4 wrong random labels
    z = rng.normal(0.0, 10.0, (300, 6))
    labels = z.argmin(axis=1) + 1
    z[np.arange(300), labels - 1] -= 50.0
    corpus["floored_anti_separable"] = (PredictionSet(z, labels, ScoreKind.LOGITS), T_MAX)
    rng = np.random.default_rng(1)
    z = rng.normal(0.0, 1000.0, (300, 4))
    corpus["floored_random"] = (PredictionSet(z, rng.integers(1, 5, 300), ScoreKind.LOGITS), T_MAX)
    return corpus


_CORPUS = _fit_corpus()
_CASES = [(name, gamma) for name in _CORPUS for gamma in (0.0, 0.5, 1.0, 2.0, 5.0)]
_INTERIOR = [case for case in _CASES if _CORPUS[case[0]][1] == "interior"]
_REFERENCE = {}


def _case_id(case):
    # the objective named as ts-fit prints it
    name, gamma = case
    return f"{name}-{'focal' if gamma else 'nll'}-{gamma:g}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", _CASES, ids=_case_id)
class TestFitAgainstReference:
    def _fit_and_reference(self, case):
        name, gamma = case
        preds, where = _CORPUS[name]
        if case not in _REFERENCE:
            _REFERENCE[case] = _golden_reference(preds, gamma)
        return preds, where, fit_temperature(preds, gamma), _REFERENCE[case]

    def test_never_worse_than_reference(self, case):
        _, _, fit, (_, ref_achieved) = self._fit_and_reference(case)
        assert fit.achieved <= ref_achieved * (1.0 + 1e-12)
        assert fit.achieved <= fit.baseline

    def test_optimum_location(self, case):
        _, where, fit, (ref_t, _) = self._fit_and_reference(case)
        if where == "interior":
            assert fit.temperature == pytest.approx(ref_t, rel=1e-5)
        else:
            assert fit.temperature == where

    def test_few_softmax_passes(self, case, monkeypatch):
        # golden section took 43 passes; bisection alone would take ~35
        name, gamma = case
        calls = []
        real = calibrate._temperature_pass

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(calibrate, "_temperature_pass", counted)
        fit_temperature(_CORPUS[name][0], gamma)
        assert len(calls) <= 12, calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", _INTERIOR, ids=_case_id)
def test_interior_fit_is_stationary(case):
    """The same test as the benchmark's: the slope changes sign at t (1 +- 1e-4)."""
    name, gamma = case
    preds = _CORPUS[name][0]
    logits = calibrate._as_logits(preds)
    t = fit_temperature(preds, gamma).temperature
    if gamma == 0.0:
        below = _nll_slope(logits, preds.labels, t * (1.0 - 1e-4))
        above = _nll_slope(logits, preds.labels, t * (1.0 + 1e-4))
        assert below < 0.0 < above
    else:
        at = _reference_objective(logits, preds.labels, t, gamma)
        for side in (1.0 - 1e-4, 1.0 + 1e-4):
            assert _reference_objective(logits, preds.labels, t * side, gamma) > at


class TestApplyPsiDataset:
    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(15)
        scores = rng.dirichlet(np.ones(3), size=20)
        preds = PredictionSet(scores, rng.integers(1, 4, size=20))
        out = apply_psi_dataset(preds, 0.0)
        np.testing.assert_array_equal(out.scores, preds.scores)

    def test_error_rate_preserved(self):
        rng = np.random.default_rng(16)
        scores = rng.dirichlet(np.ones(5), size=300)
        labels = rng.integers(1, 6, size=300)
        preds = PredictionSet(scores, labels)
        assert error_rate(apply_psi_dataset(preds, 3.0)) == error_rate(preds)

    def test_fixed_rows_pass_through(self):
        scores = np.array([[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0]])
        preds = PredictionSet(scores, np.array([1, 2, 1]))
        out = apply_psi_dataset(preds, 4.0)
        np.testing.assert_allclose(out.scores, scores, atol=1e-12)

    def test_labels_untouched(self):
        rng = np.random.default_rng(17)
        preds = PredictionSet(rng.dirichlet(np.ones(3), size=10), rng.integers(1, 4, size=10))
        out = apply_psi_dataset(preds, 2.0)
        np.testing.assert_array_equal(out.labels, preds.labels)

    def test_logits_rejected(self):
        preds = PredictionSet(np.array([[1.0, -1.0]]), np.array([1]), ScoreKind.LOGITS)
        with pytest.raises(DomainError):
            apply_psi_dataset(preds, 2.0)

    def test_tolerates_file_level_sum_noise(self):
        scores = np.array([[0.7 + 4e-7, 0.3], [0.2, 0.8 - 4e-7]])
        preds = PredictionSet(scores, np.array([1, 2]))
        out = apply_psi_dataset(preds, 2.0)
        np.testing.assert_allclose(out.scores.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_row_transform_bit_for_bit(self):
        # rows off the simplex by file-level noise go through the clip and
        # the renormalization first
        rng = np.random.default_rng(18)
        scores = rng.dirichlet(np.full(6, 0.5), size=400)
        scores[:, 0] += rng.uniform(-4e-7, 4e-7, size=400)
        preds = PredictionSet(scores, rng.integers(1, 7, size=400))
        rows = scores.clip(0.0, 1.0)
        rows /= rows.sum(axis=1, keepdims=True)
        for gamma in (0.5, 2.0, 100.0):
            out = apply_psi_dataset(preds, gamma)
            np.testing.assert_array_equal(out.scores, recover_posterior_rows(rows, gamma))

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(19)
        preds = PredictionSet(rng.dirichlet(np.ones(4), size=50), rng.integers(1, 5, size=50))
        before = preds.scores.copy()
        apply_psi_dataset(preds, 3.0)
        np.testing.assert_array_equal(preds.scores, before)

    def test_one_full_size_copy(self):
        # the output is the only array of the input's size: the transform
        # runs in place on the clipped copy, in small blocks
        rng = np.random.default_rng(20)
        preds = PredictionSet(rng.dirichlet(np.ones(1000), size=3000), rng.integers(1, 1001, 3000))
        tracemalloc.start()
        try:
            apply_psi_dataset(preds, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * preds.scores.nbytes
