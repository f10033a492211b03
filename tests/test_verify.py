"""Verification-suite runner: pass/fail aggregation, negative control."""

import numpy as np

import focal_calib.core as core
from focal_calib import run_verify, thresholds


class TestRunVerify:
    def test_default_small_sweep_passes(self):
        report = run_verify(n_random=40, seed=1)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert {
            "recovery_round_trip",
            "solver_agreement",
            "threshold_ordering",
            "region_consistency",
            "high_confidence_underestimates",
            "binary_closed_form",
            "large_gamma_recovery",
            "fixed_points",
            "argmax_preserved",
            "weight_curve_shape",
            "score_monotone",
            "low_confidence_overestimates",
            "order_preserving",
            "gamma_zero_identity",
        } <= names

    def test_gamma_zero_sweep_strict_properness(self):
        report = run_verify(gamma_list=(1.0,), n_random=20, seed=2)
        check = {c.name: c for c in report.checks}["gamma_zero_identity"]
        assert check.passed and check.worst_residual == 0.0

    def test_table_formatting(self):
        report = run_verify(n_random=10, seed=3)
        table = report.format_table()
        assert "recovery_round_trip" in table
        assert "PASS" in table

    def test_corrupted_kernels_fail_checks(self, monkeypatch):
        # negative control.  The log score map loses its log1p bracket term,
        # so the inverse solver and the transform invert the wrong map
        # together: they still agree with each other, but not with the
        # projected-gradient solver or the two-class closed form, which
        # never use the map.  A constant weight kernel flattens the weight
        # curve that the thresholds are solved on.
        monkeypatch.setattr(core, "_log_score", lambda v, g: np.log(v) - g * np.log1p(-v))
        monkeypatch.setattr(core, "_weight_interior", lambda v, g: np.ones_like(v))
        # the thresholds memo must not keep values from the corrupted curve
        thresholds.cache_clear()
        try:
            report = run_verify(n_random=15, seed=4)
        finally:
            thresholds.cache_clear()
        check = {c.name: c for c in report.checks}
        assert not check["solver_agreement"].passed
        assert not check["binary_closed_form"].passed
        assert not check["threshold_ordering"].passed
        assert check["recovery_round_trip"].passed
        assert not report.all_passed
