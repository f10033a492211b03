"""Prediction-file parsing, emission, round trips, SVG output."""

import numpy as np
import pytest

from focal_calib import (
    FileFormat,
    InconsistentKError,
    InvalidSimplexError,
    ParseError,
    PredictionSet,
    ScoreKind,
    bin_reliability,
    load_predictions,
    save_predictions,
)
from focal_calib.plotting import emit_reliability_svg

CSV_OK = "label,s1,s2\n1,0.7,0.3\n2,0.25,0.75\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCsvLoading:
    def test_two_row_file(self, tmp_path):
        preds = load_predictions(_write(tmp_path, "p.csv", CSV_OK))
        assert preds.n == 2 and preds.k == 2
        np.testing.assert_array_equal(preds.labels, [1, 2])

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "p.csv", "label,a,b\n1,0.5,0.5\n")
        with pytest.raises(ParseError):
            load_predictions(path)

    def test_bad_sum_reports_line(self, tmp_path):
        path = _write(tmp_path, "p.csv", "label,s1,s2\n1,0.7,0.3\n1,0.5,0.3\n")
        with pytest.raises(InvalidSimplexError) as info:
            load_predictions(path)
        assert info.value.line == 3

    def test_renormalize_rescues_bad_sum(self, tmp_path):
        path = _write(tmp_path, "p.csv", "label,s1,s2\n1,0.4,0.4\n")
        preds = load_predictions(path, renormalize=True)
        np.testing.assert_allclose(preds.scores, [[0.5, 0.5]], atol=1e-15)

    def test_zero_label_rejected(self, tmp_path):
        path = _write(tmp_path, "p.csv", "label,s1,s2\n0,0.5,0.5\n")
        with pytest.raises(ParseError) as info:
            load_predictions(path)
        assert info.value.line == 2

    def test_label_above_k_rejected(self, tmp_path):
        path = _write(tmp_path, "p.csv", "label,s1,s2\n3,0.5,0.5\n")
        with pytest.raises(ParseError):
            load_predictions(path)

    def test_inconsistent_column_count(self, tmp_path):
        path = _write(tmp_path, "p.csv", "label,s1,s2\n1,0.5,0.5\n1,0.2,0.3,0.5\n")
        with pytest.raises(InconsistentKError) as info:
            load_predictions(path)
        assert info.value.line == 3

    def test_non_numeric_score(self, tmp_path):
        path = _write(tmp_path, "p.csv", "label,s1,s2\n1,abc,0.5\n")
        with pytest.raises(ParseError):
            load_predictions(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_predictions(_write(tmp_path, "p.csv", ""))


class TestJsonlLoading:
    def test_ok(self, tmp_path):
        text = '{"label": 1, "scores": [0.6, 0.4]}\n{"label": 2, "scores": [0.1, 0.9]}\n'
        preds = load_predictions(_write(tmp_path, "p.jsonl", text))
        assert preds.n == 2

    def test_bad_json_reports_line(self, tmp_path):
        text = '{"label": 1, "scores": [0.6, 0.4]}\n{oops\n'
        with pytest.raises(ParseError) as info:
            load_predictions(_write(tmp_path, "p.jsonl", text))
        assert info.value.line == 2

    def test_missing_field(self, tmp_path):
        with pytest.raises(ParseError):
            load_predictions(_write(tmp_path, "p.jsonl", '{"label": 1}\n'))

    def test_boolean_label_rejected_with_line(self, tmp_path):
        text = '{"label": 1, "scores": [0.6, 0.4]}\n{"label": true, "scores": [0.5, 0.5]}\n'
        with pytest.raises(ParseError) as info:
            load_predictions(_write(tmp_path, "p.jsonl", text))
        assert info.value.line == 2

    def test_inconsistent_k(self, tmp_path):
        text = '{"label": 1, "scores": [0.6, 0.4]}\n{"label": 1, "scores": [0.2, 0.3, 0.5]}\n'
        with pytest.raises(InconsistentKError):
            load_predictions(_write(tmp_path, "p.jsonl", text))

    def test_logit_kind_skips_simplex_validation(self, tmp_path):
        text = '{"label": 1, "scores": [2.5, -1.0]}\n'
        preds = load_predictions(
            _write(tmp_path, "p.jsonl", text), kind=ScoreKind.LOGITS
        )
        assert preds.kind is ScoreKind.LOGITS


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", [FileFormat.CSV, FileFormat.JSONL])
    def test_save_load_identical(self, tmp_path, fmt):
        rng = np.random.default_rng(0)
        scores = rng.dirichlet(np.ones(4), size=25)
        labels = rng.integers(1, 5, size=25)
        preds = PredictionSet(scores, labels)
        path = tmp_path / ("out.csv" if fmt is FileFormat.CSV else "out.jsonl")
        save_predictions(preds, path, fmt)
        loaded = load_predictions(path, fmt)
        np.testing.assert_array_equal(loaded.scores, preds.scores)
        np.testing.assert_array_equal(loaded.labels, preds.labels)

    def test_save_load_save_is_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        preds = PredictionSet(rng.dirichlet(np.ones(3), size=10), rng.integers(1, 4, 10))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_predictions(preds, p1)
        save_predictions(load_predictions(p1), p2)
        assert p1.read_text() == p2.read_text()


class TestReliabilitySvg:
    def _report(self, n_bins=10):
        rng = np.random.default_rng(2)
        scores = rng.dirichlet(np.ones(3), size=200)
        labels = rng.integers(1, 4, size=200)
        return bin_reliability(PredictionSet(scores, labels), n_bins)

    def test_one_rect_per_bin(self, tmp_path):
        report = self._report(10)
        out = tmp_path / "rel.svg"
        emit_reliability_svg(report, out)
        text = out.read_text()
        assert text.count("<rect") == 10
        assert "ECE" in text
        assert "stroke-dasharray" in text  # the diagonal reference

    def test_empty_bins_have_no_nan(self, tmp_path):
        preds = PredictionSet(np.array([[0.95, 0.05]]), np.array([1]))
        report = bin_reliability(preds, 10)
        out = tmp_path / "rel.svg"
        emit_reliability_svg(report, out)
        text = out.read_text()
        assert "NaN" not in text and "nan" not in text
        assert text.count("<rect") == 10
