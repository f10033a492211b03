"""Calibration metrics: binning, ECE, classwise ECE, NLL, KLD, error rate."""

import math

import numpy as np
import pytest

from focal_calib import (
    DomainError,
    EmptyDataError,
    InvalidSimplexError,
    PredictionSet,
    ScoreKind,
    apply_psi_dataset,
    bin_reliability,
    cw_ece,
    ece,
    error_rate,
    kld,
    kld_rows,
    nll,
)
from focal_calib.core import validate_simplex_rows
from focal_calib.metrics import bin_index


def _preds(scores, labels):
    return PredictionSet(np.asarray(scores, float), np.asarray(labels, int))


class TestBinAssignment:
    def test_zero_confidence_goes_to_first_bin(self):
        assert bin_index(np.array([0.0]), 10)[0] == 1

    def test_full_confidence_stays_in_top_bin(self):
        assert bin_index(np.array([1.0]), 10)[0] == 10

    def test_interior_values(self):
        idx = bin_index(np.array([0.05, 0.15, 0.95]), 10)
        np.testing.assert_array_equal(idx, [1, 2, 10])

    def test_edge_goes_to_lower_adjacent_bin(self):
        # bins are (lo, hi]: an exact edge belongs to the bin it closes
        assert bin_index(np.array([0.1]), 10)[0] == 1

    @pytest.mark.parametrize("n_bins", [1, 10, 15])
    def test_assignment_is_total(self, n_bins):
        rng = np.random.default_rng(0)
        conf = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 500)])
        idx = bin_index(conf, n_bins)
        assert idx.min() >= 1 and idx.max() <= n_bins


class TestBinReliability:
    def test_perfectly_confident_and_correct(self):
        preds = _preds([[1.0, 0.0], [0.0, 1.0]], [1, 2])
        assert bin_reliability(preds, 10).ece == 0.0

    def test_single_sample_hand_value(self):
        preds = _preds([[0.75, 0.25]], [1])
        report = bin_reliability(preds, 10)
        assert report.ece == pytest.approx(abs(1.0 - 0.75), abs=1e-15)

    def test_two_samples_one_bin_hand_value(self):
        preds = _preds([[0.6, 0.4], [0.8, 0.2]], [1, 2])
        report = bin_reliability(preds, 1)
        assert report.ece == pytest.approx(abs(0.5 - 0.7), abs=1e-15)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(1)
        scores = rng.dirichlet(np.ones(4), size=300)
        labels = rng.integers(1, 5, size=300)
        report = bin_reliability(_preds(scores, labels), 15)
        assert report.n == 300

    def test_ece_recomputable_bit_for_bit(self):
        rng = np.random.default_rng(2)
        scores = rng.dirichlet(np.ones(3), size=500)
        labels = rng.integers(1, 4, size=500)
        report = bin_reliability(_preds(scores, labels), 10)
        recomputed = (report.counts * np.abs(report.accuracy - report.confidence)).sum()
        assert float(recomputed / report.counts.sum()) == report.ece

    @pytest.mark.parametrize("n_bins", [1, 7, 10, 300])
    def test_bins_match_masked_means_bit_for_bit(self, n_bins):
        # the reliability CSV prints 17 digits, so each bin's mean must be
        # summed exactly as a masked mean sums it
        rng = np.random.default_rng(n_bins)
        scores = rng.dirichlet(np.full(4, 0.3), size=5000)
        labels = rng.integers(1, 5, size=5000)
        report = bin_reliability(_preds(scores, labels), n_bins)
        conf = scores.max(axis=1)
        correct = (scores.argmax(axis=1) + 1 == labels).astype(float)
        idx = bin_index(conf, n_bins)
        for j in range(n_bins):
            members = idx == j + 1
            assert report.counts[j] == members.sum()
            if members.any():
                assert report.accuracy[j] == correct[members].mean()
                assert report.confidence[j] == conf[members].mean()
            else:
                assert report.accuracy[j] == 0.0 and report.confidence[j] == 0.0

    def test_empty_dataset(self):
        preds = PredictionSet(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDataError):
            bin_reliability(preds, 10)

    def test_ece_bounds(self):
        rng = np.random.default_rng(3)
        scores = rng.dirichlet(np.ones(5), size=200)
        labels = rng.integers(1, 6, size=200)
        assert 0.0 <= ece(_preds(scores, labels), 10) <= 1.0

    def test_logits_rejected(self):
        preds = PredictionSet(np.array([[1.0, -1.0]]), np.array([1]), ScoreKind.LOGITS)
        with pytest.raises(DomainError):
            bin_reliability(preds, 10)

    @pytest.mark.parametrize("metric", [bin_reliability, ece, cw_ece])
    @pytest.mark.parametrize("n_bins", [0, 2.5, True, math.nan])
    def test_bad_bin_counts_rejected(self, metric, n_bins):
        with pytest.raises(DomainError):
            metric(_preds([[0.7, 0.3], [0.2, 0.8]], [1, 2]), n_bins)

    def test_integral_float_bin_count(self):
        preds = _preds([[0.7, 0.3], [0.2, 0.8], [0.55, 0.45]], [1, 2, 2])
        assert ece(preds, 4.0) == ece(preds, 4)
        assert cw_ece(preds, 4.0) == cw_ece(preds, 4)


class TestClasswiseEce:
    def test_hand_value_two_class(self):
        preds = _preds([[0.9, 0.1]], [1])
        expected = 0.5 * (abs(1.0 - 0.9) + abs(0.0 - 0.1))
        assert cw_ece(preds, 1) == pytest.approx(expected, abs=1e-15)

    def test_calibrated_constant_predictor(self):
        # constant prediction matching exact class frequencies
        scores = np.tile([0.75, 0.25], (4, 1))
        labels = np.array([1, 1, 1, 2])
        assert cw_ece(_preds(scores, labels), 1) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n, k", [(400, 3), (600, 2000), (3, 1000)])
    def test_matches_per_class_loop(self, n, k):
        # n * k above the block size bins the class columns in several blocks
        rng = np.random.default_rng(k)
        scores = rng.dirichlet(np.full(k, 0.5), size=n)
        labels = rng.integers(1, k + 1, size=n)
        total = 0.0
        for label in range(1, k + 1):
            conf = scores[:, label - 1]
            is_label = (labels == label).astype(float)
            idx = bin_index(conf, 10)
            for j in range(1, 11):
                members = idx == j
                if members.any():
                    gap = is_label[members].mean() - conf[members].mean()
                    total += members.sum() / n * abs(gap)
        assert cw_ece(_preds(scores, labels), 10) == pytest.approx(total / k, rel=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(4)
        scores = rng.dirichlet(np.ones(3), size=150)
        labels = rng.integers(1, 4, size=150)
        assert 0.0 <= cw_ece(_preds(scores, labels), 10) <= 1.0


class TestNll:
    def test_certain_predictions(self):
        preds = _preds([[1.0, 0.0], [0.0, 1.0]], [1, 2])
        assert nll(preds) == 0.0

    def test_hand_values(self):
        assert nll(_preds([[0.5, 0.5]], [1])) == pytest.approx(math.log(2), abs=1e-15)
        two = _preds([[0.5, 0.5], [0.5, 0.5]], [1, 2])
        assert nll(two) == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_sum_over_rows(self):
        rng = np.random.default_rng(5)
        scores = rng.dirichlet(np.ones(3), size=64)
        labels = rng.integers(1, 4, size=64)
        halves = nll(_preds(scores[:32], labels[:32])) + nll(_preds(scores[32:], labels[32:]))
        assert nll(_preds(scores, labels)) == pytest.approx(halves, rel=1e-12)

    def test_strict_zero_is_inf(self):
        preds = _preds([[0.0, 1.0]], [1])
        assert nll(preds) == math.inf
        assert math.isfinite(nll(preds, safe=True))

    def test_empty(self):
        with pytest.raises(EmptyDataError):
            nll(PredictionSet(np.zeros((0, 2)), np.zeros(0, dtype=int)))


class TestKld:
    def test_identical_is_zero(self):
        assert kld([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_value(self):
        assert kld([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_absolute_continuity_violation(self):
        assert kld([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            assert kld(p, q) >= 0.0

    def test_zero_only_at_equality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            if kld(p, q) < 1e-12:
                np.testing.assert_allclose(p, q, atol=1e-5)

    def test_rows_matches_scalar(self):
        rng = np.random.default_rng(8)
        P = rng.dirichlet(np.ones(4), size=50)
        Q = rng.dirichlet(np.ones(4), size=50)
        batch = kld_rows(P, Q)
        singles = [kld(p, q) for p, q in zip(P, Q)]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


    def test_rows_are_checked(self):
        good = np.array([[0.5, 0.5]])
        for bad in ([[1.2, -0.2]], [[0.5, 0.6]], [[math.nan, 0.5]]):
            with pytest.raises(InvalidSimplexError):
                kld_rows(np.array(bad), good)
            with pytest.raises(InvalidSimplexError):
                kld_rows(good, np.array(bad))

    def test_rows_within_tolerance_are_clipped(self):
        # -5e-10 is within SIMPLEX_TOL of 0; the log sees 0, not a negative
        out = kld_rows(np.array([[0.5, 0.5]]), np.array([[1.0 + 5e-10, -5e-10]]))
        assert out[0] == math.inf

    def test_each_vector_is_checked_once(self, monkeypatch):
        from focal_calib import core, metrics

        calls = []

        def counting(rows, tol, lines=None):
            calls.append(tol)
            return validate_simplex_rows(rows, tol, lines)

        monkeypatch.setattr(core, "validate_simplex_rows", counting)
        monkeypatch.setattr(metrics, "validate_simplex_rows", counting)
        kld([0.3, 0.7], [0.4, 0.6])
        assert len(calls) == 2


class TestPredictionSetLabels:
    SCORES = np.array([[0.6, 0.4], [0.3, 0.7]])

    @pytest.mark.parametrize(
        "labels",
        [[1.5, 2.0], np.array([1.0, math.nan]), [True, True], np.array([True, True]), [True, 2]],
        ids=["fraction", "nan", "bool_list", "bool_array", "mixed_bool"],
    )
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(DomainError):
            PredictionSet(self.SCORES, labels)

    def test_integral_float_labels_accepted(self):
        preds = PredictionSet(self.SCORES, [1.0, 2.0])
        assert preds.labels.dtype.kind == "i"
        np.testing.assert_array_equal(preds.labels, [1, 2])


class TestErrorRate:
    def test_all_correct(self):
        preds = _preds([[1.0, 0.0], [0.0, 1.0]], [1, 2])
        assert error_rate(preds) == 0.0

    def test_all_wrong(self):
        preds = _preds([[1.0, 0.0], [0.0, 1.0]], [2, 1])
        assert error_rate(preds) == 1.0

    def test_half(self):
        preds = _preds([[0.9, 0.1], [0.9, 0.1]], [1, 2])
        assert error_rate(preds) == 0.5

    def test_tie_breaks_to_lowest_index(self):
        preds = _preds([[0.5, 0.5]], [1])
        assert error_rate(preds) == 0.0

    def test_invariant_under_recovery_transform(self):
        rng = np.random.default_rng(9)
        scores = rng.dirichlet(np.ones(4), size=400)
        labels = rng.integers(1, 5, size=400)
        preds = _preds(scores, labels)
        for gamma in (0.5, 2.0, 5.0):
            transformed = apply_psi_dataset(preds, gamma)
            assert error_rate(transformed) == error_rate(preds)
            # values do change, only the decision is invariant
            if gamma > 0:
                assert ece(transformed, 10) != ece(preds, 10)
