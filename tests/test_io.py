"""Prediction-file parsing, emission, round trips, SVG output."""

import errno
import io
import json
import multiprocessing
import multiprocessing.pool
import os
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import focal_calib.cli as cli
import focal_calib.io as fio
from focal_calib import (
    FileFormat,
    InconsistentKError,
    InvalidSimplexError,
    ParseError,
    PredictionSet,
    ScoreKind,
    apply_psi_dataset,
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
        with pytest.raises(InvalidSimplexError, match=r"^line 3: ") as info:
            load_predictions(path)
        assert info.value.line == 3
        # both carry a line number, but `except ParseError` must not catch a bad sum
        assert not isinstance(info.value, ParseError)

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

    def test_integer_score_beyond_float_range_reports_line(self, tmp_path):
        path = _write(tmp_path, "p.jsonl", JSONL_CORPUS["huge_int_score_late"])
        with pytest.raises(ParseError, match="non-finite score") as info:
            load_predictions(path)
        assert info.value.line == 2

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


H2 = "label,s1,s2\n"
H10 = "label," + ",".join(f"s{i}" for i in range(1, 11)) + "\n"
TENTHS = ",0.1" * 10

# files that probe the edges of the accepted syntax; the vectorized pass
# must give what the line-by-line parser gives, or leave them to it
CSV_CORPUS = {
    "plain": H2 + "1,0.7,0.3\n2,0.25,0.75\n",
    "no_final_newline": H2 + "1,0.7,0.3\n2,0.25,0.75",
    "blank_lines": H2 + "\n1,0.7,0.3\n\n\n2,0.25,0.75\n\n",
    "whitespace_line": H2 + "1,0.7,0.3\n  \n2,0.25,0.75\n",
    "tab_line": H2 + "1,0.7,0.3\n\t\n",
    "hash_line": H2 + "# a comment\n1,0.7,0.3\n",
    "hash_after_row": H2 + "1,0.7,0.3 # trailing\n",
    "crlf": "label,s1,s2\r\n1,0.7,0.3\r\n2,0.25,0.75\r\n",
    "crlf_blank": "label,s1,s2\r\n1,0.7,0.3\r\n\r\n2,0.25,0.75\r\n",
    "lone_cr": H2 + "1,0.7,0.3\r2,0.25,0.75\n",
    "cr_in_header": "label,s1,\rs2\n1,0.7,0.3\n",
    "cr_header_end": "label,s1,s2\r1,0.7,0.3\n",
    "padded_fields": H2 + " 1 ,\t0.7 , 0.3\t\n2,  0.25,0.75  \n",
    "padded_header": " label , s1 ,s2\t\n1,0.7,0.3\n",
    "quoted_header": '"label",s1,s2\n1,0.7,0.3\n',
    "quoted_label": H2 + '"1",0.7,0.3\n',
    "quoted_score": H2 + '1,"0.7",0.3\n',
    "plus_label": H2 + "+1,0.7,0.3\n",
    "zero_padded_label": H2 + "01,0.7,0.3\n",
    "float_label": H2 + "1.0,0.7,0.3\n",
    "underscore_label": H10 + "1_0" + TENTHS + "\n",
    "arabic_label": H2 + "\u0661,0.7,0.3\n",
    "huge_label": H2 + "99999999999999999999,0.7,0.3\n",
    "zero_label": H2 + "0,0.7,0.3\n",
    "label_above_k": H2 + "3,0.7,0.3\n",
    "dot_and_exponent": H2 + "1,.5,5E-1\n",
    "nan_score": H2 + "1,nan,0.3\n",
    "inf_score": H2 + "1,inf,0.3\n",
    "neg_inf_logit": H2 + "1,-inf,0.3\n",
    "empty_score": H2 + "1,,0.3\n",
    "underscore_score": H2 + "1,0.7,0_3\n",
    "text_score": H2 + "1,abc,0.3\n",
    "trailing_comma": H2 + "1,0.7,0.3,\n",
    "ragged": H2 + "1,0.7,0.3\n1,0.2,0.3,0.5\n",
    "short_row": H2 + "1,0.7\n",
    "header_only": H2,
    "header_and_blanks": H2 + "\n\n",
    "empty_file": "",
    "one_class_header": "label,s1\n1,1.0\n",
    "bad_header": "label,a,b\n1,0.5,0.5\n",
    "bad_sum": H2 + "1,0.7,0.3\n1,0.5,0.3\n",
    "negative_entry": H2 + "1,1.2,-0.2\n",
    "within_tolerance": H2 + "1,0.6000005,0.4\n2,1.0000004,-0.0000004\n",
    "zero_row": H2 + "1,0,0\n",
    "logit_row": H2 + "1,2.5,-1.0\n",
    "negative_zero": H2 + "1,-0,1\n",
    "subnormal": H2 + "1,5e-324,1\n",
    # many lines, so that ranges cut at a few bytes end at most of them
    "crlf_many": "label,s1,s2\r\n" + "1,0.7,0.3\r\n2,0.25,0.75\r\n" * 6,
    "lone_cr_many": H2 + "1,0.7,0.3\r2,0.25,0.75\r" * 6 + "1,0.5,0.5\n" + "2,0.5,0.5\r\n" * 3,
    "blank_run": H2 + ("1,0.7,0.3\n" + "\n" * 12) * 4,
    "whitespace_run": H2 + "1,0.7,0.3\n" * 5 + " \t \n" * 4 + "1,0.7,0.3\n" * 5,
    "no_final_newline_many": H2 + "1,0.7,0.3\n" * 8 + "2,0.25,0.75",
    "multibyte_ends": H2 + "1,0.7,0.3\u3000\n" * 6 + "2,0.25,\u00e90.75\n" + "1,0.7,0.3\n" * 3,
    "quoted_late": H2 + "1,0.7,0.3\n" * 8 + '2,"0.25",0.75\n' + "1,0.7,0.3\n" * 3,
    "ragged_late": H2 + "1,0.7,0.3\n" * 10 + "1,0.2,0.3,0.5\n" + "1,0.7,0.3\n",
    "bad_sum_late": H2 + "1,0.7,0.3\n" * 10 + "1,0.5,0.3\n" + "1,0.7,0.3\n" * 2,
}

JSONL_CORPUS = {
    "plain": '{"label": 1, "scores": [0.7, 0.3]}\n{"label": 2, "scores": [0.25, 0.75]}\n',
    "compact": '{"label":1,"scores":[0.7,0.3]}',
    "key_order": '{"scores": [0.7, 0.3], "label": 1}\n',
    "blank_lines": '\n{"label": 1, "scores": [0.7, 0.3]}\n  \n\t\n',
    "crlf": '{"label": 1, "scores": [0.7, 0.3]}\r\n{"label": 2, "scores": [0.25, 0.75]}\r\n',
    "cr_inside": '{"label": 1,\r "scores": [0.7, 0.3]}\n',
    "form_feed": '{"label": 1, "scores": [0.7, 0.3]}\x0c{"label": 2, "scores": [0.5, 0.5]}\n',
    "line_separator": '{"label": 1, "scores": [0.7, 0.3]}\u2028\n',
    "string_scores": '{"label": 1, "scores": ["0.7", "0.3"]}\n',
    "underscored_string_score": '{"label": 1, "scores": ["0_7", 0.3]}\n',
    "string_label": '{"label": "1", "scores": [0.7, 0.3]}\n',
    "float_label": '{"label": 1.0, "scores": [0.7, 0.3]}\n',
    "fractional_label": '{"label": 1.5, "scores": [0.7, 0.3]}\n',
    "bool_label": '{"label": true, "scores": [0.7, 0.3]}\n',
    "null_label": '{"label": null, "scores": [0.7, 0.3]}\n',
    "huge_label": '{"label": 100000000000000000000000, "scores": [0.7, 0.3]}\n',
    "zero_label": '{"label": 0, "scores": [0.7, 0.3]}\n',
    "bool_scores": '{"label": 1, "scores": [true, false]}\n',
    "int_scores": '{"label": 2, "scores": [0, 1]}\n',
    "null_score": '{"label": 1, "scores": [null, 0.3]}\n',
    "nested_score": '{"label": 1, "scores": [[0.7], 0.3]}\n',
    "object_score": '{"label": 1, "scores": [{}, 0.3]}\n',
    "big_int_scores": '{"label": 1, "scores": [9007199254740993, -18446744073709551617]}\n',
    "huge_int_score": '{"label": 1, "scores": [1' + "0" * 400 + ', 0]}\n',
    "huge_int_score_late": '{"label": 1, "scores": [0.7, 0.3]}\n{"label": 1, "scores": [1'
    + "0" * 400 + ', 0]}\n',
    "nan_score": '{"label": 1, "scores": [NaN, 0.3]}\n',
    "inf_score": '{"label": 1, "scores": [Infinity, 0.3]}\n',
    "overflow_score": '{"label": 1, "scores": [1e400, 0.3]}\n',
    "ragged": '{"label": 1, "scores": [0.7, 0.3]}\n{"label": 1, "scores": [0.2, 0.3, 0.5]}\n',
    "short_then_long": '{"label": 1, "scores": [1.0]}\n{"label": 1, "scores": [0.7, 0.3]}\n',
    "scores_not_list": '{"label": 1, "scores": {"a": 1}}\n',
    "missing_scores": '{"label": 1}\n',
    "top_level_list": '[1, [0.7, 0.3]]\n',
    "extra_string_field": '{"label": 1, "scores": [0.7, 0.3], "id": "a"}\n',
    "extra_number_field": '{"label": 1, "scores": [0.7, 0.3], "w": 2}\n',
    "bad_json": '{"label": 1, "scores": [0.7, 0.3]}\n{oops\n',
    "trailing_garbage": '{"label": 1, "scores": [0.7, 0.3]} x\n',
    "bom": '\ufeff{"label": 1, "scores": [0.7, 0.3]}\n',
    "empty_file": "",
    "blank_file": "\n \n",
    "bad_sum": '{"label": 1, "scores": [0.7, 0.3]}\n{"label": 1, "scores": [0.5, 0.3]}\n',
    "negative_entry": '{"label": 1, "scores": [1.2, -0.2]}\n',
    "zero_row": '{"label": 1, "scores": [0, 0]}\n',
    "logit_row": '{"label": 1, "scores": [2.5, -1.0]}\n',
    "negative_zero": '{"label": 1, "scores": [-0.0, 1.0]}\n',
    "bad_utf8": '{"label": 1, "scores": [0.7, 0.3]}\n' * 400 + "\udcff\n",
    "crlf_many": '{"label": 1, "scores": [0.7, 0.3]}\r\n' * 8,
    "lone_cr_many": '{"label": 1, "scores": [0.7, 0.3]}\r' * 8 + '{"label": 2, "scores": [0.5, 0.5]}\n' * 2,
    "blank_run": ('{"label": 1, "scores": [0.7, 0.3]}\n' + "\n" * 40 + " \t\n") * 3,
    "no_final_newline_many": '{"label": 1, "scores": [0.7, 0.3]}\n' * 8 + '{"label": 2, "scores": [0.25, 0.75]}',
    "multibyte_ends": '{"label": 1, "scores": [0.7, 0.3], "\u00e9": 1}\n' * 8,
    "multibyte_garbage": '{"label": 1, "scores": [0.7, 0.3]}\n' * 8 + '{"label": 1, "scores": [0.7, 0.3]}\u00e9\n',
    "string_late": '{"label": 1, "scores": [0.7, 0.3]}\n' * 8 + '{"label": 1, "scores": ["0.7", 0.3]}\n',
    "k_changes": '{"label": 1, "scores": [0.7, 0.3]}\n' * 8 + '{"label": 1, "scores": [0.2, 0.3, 0.5]}\n' * 8,
    "bad_sum_late": '{"label": 1, "scores": [0.7, 0.3]}\n' * 10 + '{"label": 1, "scores": [0.5, 0.3]}\n',
}
CSV_CORPUS["bad_utf8"] = H2 + "1,0.7,0.3\n" * 1000 + "1,0.7,\udcff\n"
# a header that does not decode, read by the fast pass in the caller's process
CSV_CORPUS["bad_utf8_header"] = "label,s1,s\udcff2\n1,0.7,0.3\n"

LOAD_MODES = [
    (ScoreKind.PROBABILITIES, False),
    (ScoreKind.PROBABILITIES, True),
    (ScoreKind.LOGITS, False),
]


@pytest.fixture
def pooled(monkeypatch):
    """Bodies read in ranges of a few bytes on a fork pool of three workers
    whatever the machine, and saves written in blocks of a few values."""
    monkeypatch.setattr(fio, "_SPAN_BYTES", 8)
    monkeypatch.setattr(fio, "_BLOCK_VALUES", 5)
    monkeypatch.setattr(fio, "_POOL_MIN_BYTES", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    yield
    assert multiprocessing.active_children() == []


def _outcome(load, *args):
    """What a load gives: the arrays bit for bit, or the error in full."""
    try:
        preds = load(*args)
    except Exception as exc:  # the reference may raise anything; compare it
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return ("ok", preds.kind, preds.labels.tolist(), preds.scores.shape, preds.scores.tobytes())


def _corpus_cases():
    for fmt, corpus in ((FileFormat.CSV, CSV_CORPUS), (FileFormat.JSONL, JSONL_CORPUS)):
        for name, text in corpus.items():
            yield pytest.param(fmt, text, id=f"{fmt.value}-{name}")


class TestVectorizedPass:
    @pytest.mark.parametrize("fmt, text", _corpus_cases())
    @pytest.mark.parametrize("kind, renormalize", LOAD_MODES)
    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    def test_matches_line_by_line_parser(
        self, request, tmp_path, fmt, text, kind, renormalize, chunked
    ):
        path = tmp_path / f"p.{fmt.value}"
        path.write_bytes(text.encode(errors="surrogateescape"))
        expected = _outcome(fio._load_by_line, path, fmt, kind, renormalize)
        if chunked:
            request.getfixturevalue("pooled")
        assert _outcome(load_predictions, path, fmt, kind, renormalize) == expected

    @pytest.mark.parametrize(
        "fmt, name",
        [(FileFormat.CSV, n) for n in (
            "plain", "no_final_newline", "blank_lines", "crlf", "crlf_blank",
            "padded_fields", "padded_header", "plus_label", "dot_and_exponent",
            "within_tolerance", "negative_zero", "subnormal",
        )]
        + [(FileFormat.JSONL, n) for n in (
            "plain", "compact", "key_order", "blank_lines", "crlf", "bool_scores",
            "int_scores", "negative_zero",
        )],
    )
    def test_plain_files_take_one_pass(self, tmp_path, fmt, name):
        corpus = CSV_CORPUS if fmt is FileFormat.CSV else JSONL_CORPUS
        path = tmp_path / f"p.{fmt.value}"
        path.write_bytes(corpus[name].encode())
        with mock.patch.object(fio, "_load_by_line", side_effect=AssertionError("fell back")):
            load_predictions(path, fmt)

    @pytest.mark.parametrize(
        "fmt, name",
        [(FileFormat.CSV, n) for n in (
            "quoted_label", "quoted_score", "quoted_header", "underscore_label",
            "hash_line", "whitespace_line", "float_label", "nan_score", "inf_score",
            "header_only", "cr_in_header", "cr_header_end", "zero_label",
            "bad_sum",
        )]
        + [(FileFormat.JSONL, n) for n in (
            "string_scores", "string_label", "float_label", "bool_label", "ragged",
            "nan_score", "extra_string_field", "extra_number_field", "cr_inside",
            "form_feed", "bad_sum",
        )],
    )
    def test_other_files_go_to_line_by_line_parser(self, tmp_path, fmt, name):
        corpus = CSV_CORPUS if fmt is FileFormat.CSV else JSONL_CORPUS
        path = tmp_path / f"p.{fmt.value}"
        path.write_bytes(corpus[name].encode())
        sentinel = PredictionSet(np.array([[0.5, 0.5]]), np.array([1]))
        with mock.patch.object(fio, "_load_by_line", return_value=sentinel) as reference:
            assert load_predictions(path, fmt) is sentinel
        reference.assert_called_once()

    @pytest.mark.parametrize(
        "fmt, name",
        [(FileFormat.CSV, "bad_utf8"), (FileFormat.CSV, "bad_utf8_header"),
         (FileFormat.JSONL, "bad_utf8")],
    )
    def test_undecodable_files_go_to_line_by_line_parser(self, tmp_path, fmt, name):
        corpus = CSV_CORPUS if fmt is FileFormat.CSV else JSONL_CORPUS
        path = tmp_path / f"p.{fmt.value}"
        path.write_bytes(corpus[name].encode(errors="surrogateescape"))
        sentinel = PredictionSet(np.array([[0.5, 0.5]]), np.array([1]))
        with mock.patch.object(fio, "_load_by_line", return_value=sentinel) as reference:
            assert load_predictions(path, fmt) is sentinel
        reference.assert_called_once()


def _sample(n, k=3):
    rng = np.random.default_rng(n)
    return PredictionSet(rng.dirichlet(np.ones(k), size=n), rng.integers(1, k + 1, size=n))


def _spy_on_pools(monkeypatch):
    spy = mock.Mock(wraps=multiprocessing.get_context)
    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return spy


def _forbid_pools(monkeypatch):
    error = AssertionError("a process pool was started")
    monkeypatch.setattr(multiprocessing, "get_context", mock.Mock(side_effect=error))


def _fail_in_worker(*args):
    raise OSError(errno.EIO, f"I/O error in process {os.getpid()}")


def _slow_task(marks, i):
    (marks / str(i)).touch()
    time.sleep(0.02)
    return i


class TestForkPool:
    def test_early_exit_kills_no_worker(self, tmp_path, monkeypatch, pooled):
        # a worker killed while it sends a result can leave the result
        # pipe's lock held, and the pool's task thread then waits forever
        killed = AssertionError("a pool was terminated")
        monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", mock.Mock(side_effect=killed))
        tasks = [(tmp_path, i) for i in range(50)]
        with pytest.raises(KeyError):
            with fio._results(_slow_task, tasks, 3) as parts:
                assert next(parts) == 0
                raise KeyError
        assert multiprocessing.active_children() == []
        # the tasks not started when the block exited did not run
        assert len(os.listdir(tmp_path)) < len(tasks)

    @pytest.mark.parametrize("fmt", list(FileFormat))
    def test_chunked_load_runs_on_a_fork_pool(self, tmp_path, monkeypatch, pooled, fmt):
        preds = _sample(40)
        path = tmp_path / f"p.{fmt.value}"
        save_predictions(preds, path)
        spy = _spy_on_pools(monkeypatch)
        with mock.patch.object(fio, "_load_by_line", side_effect=AssertionError("fell back")):
            loaded = load_predictions(path)
        spy.assert_called_once_with("fork")
        assert loaded.scores.tobytes() == preds.scores.tobytes()
        np.testing.assert_array_equal(loaded.labels, preds.labels)

    @pytest.mark.parametrize("fmt", list(FileFormat))
    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_save_starts_no_pool(self, request, tmp_path, monkeypatch, fmt, n):
        preds = _sample(n)
        default_blocks = tmp_path / f"default.{fmt.value}"
        save_predictions(preds, default_blocks)
        # blocks of five values, and a pool for anything from 8 bytes
        request.getfixturevalue("pooled")
        _forbid_pools(monkeypatch)
        small_blocks = tmp_path / f"small.{fmt.value}"
        save_predictions(preds, small_blocks)
        assert small_blocks.read_bytes() == default_blocks.read_bytes()

    @pytest.mark.parametrize("fmt", list(FileFormat))
    def test_small_files_start_no_pool(self, tmp_path, monkeypatch, fmt):
        _forbid_pools(monkeypatch)
        # several ranges, read one after the other in this process
        monkeypatch.setattr(fio, "_SPAN_BYTES", 1000)
        preds = _sample(2000)
        path = tmp_path / f"p.{fmt.value}"
        save_predictions(preds, path)
        assert path.stat().st_size > 10 * fio._SPAN_BYTES
        with mock.patch.object(fio, "_load_by_line", side_effect=AssertionError("fell back")):
            loaded = load_predictions(path)
        assert loaded.scores.tobytes() == preds.scores.tobytes()

    @pytest.mark.parametrize("fmt", list(FileFormat))
    def test_one_cpu_takes_the_sequential_path(self, tmp_path, monkeypatch, pooled, fmt):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        _forbid_pools(monkeypatch)
        preds = _sample(40)
        path = tmp_path / f"p.{fmt.value}"
        save_predictions(preds, path)
        assert load_predictions(path).scores.tobytes() == preds.scores.tobytes()

    @pytest.mark.parametrize("fmt", list(FileFormat))
    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch, pooled, fmt):
        preds = _sample(40)
        path = tmp_path / f"p.{fmt.value}"
        save_predictions(preds, path)
        old = path.read_bytes()
        monkeypatch.setattr(fio, "_read_span", _fail_in_worker)
        with pytest.raises(OSError) as load_error:
            load_predictions(path)
        error = load_error.value
        assert type(error) is OSError and error.errno == errno.EIO
        assert int(error.strerror.rsplit(" ", 1)[1]) != os.getpid()
        # a save formats its blocks in this process
        emit = "_csv_block" if fmt is FileFormat.CSV else "_jsonl_block"
        monkeypatch.setattr(fio, emit, _fail_in_worker)
        with pytest.raises(OSError) as save_error:
            save_predictions(preds, path)
        error = save_error.value
        assert type(error) is OSError and error.errno == errno.EIO
        assert int(error.strerror.rsplit(" ", 1)[1]) == os.getpid()
        assert os.listdir(tmp_path) == [path.name]
        assert path.read_bytes() == old


# argv before and after the subcommand, and whether the output takes the
# other format
TRANSFORM_MODES = {
    "psi": ([], ["--psi", "2"], False),
    "logits": ([], ["--kind", "logits", "--temperature", "1.7"], False),
    "renormalize": (["--renormalize"], ["--psi", "2"], False),
    "other_format": ([], ["--psi", "2"], True),
}


def _composed_transform(src, dst, rows_fn, kind, renormalize, in_fmt, out_fmt):
    # the transform as one load, one rows_fn and one save
    save_predictions(rows_fn(load_predictions(src, in_fmt, kind, renormalize)), dst, out_fmt)


def _transform_outcome(capsys, tmp_path, src, out, argv):
    """What ``main(argv)`` gives: exit code or exception, printed text and
    output bytes; no temp file may be left behind."""
    try:
        result = cli.main(argv)
    except Exception as exc:  # the reference may raise anything; compare it
        result = (type(exc), str(exc))
    printed = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    assert sorted(os.listdir(tmp_path)) == sorted([src.name] + [out.name] * (written is not None))
    out.unlink(missing_ok=True)
    return result, printed.out, printed.err, written


def _transform_rows(preds):
    return apply_psi_dataset(preds, 2.0)


class TestTransformFile:
    @pytest.mark.parametrize("fmt, text", _corpus_cases())
    @pytest.mark.parametrize("mode", list(TRANSFORM_MODES))
    def test_pooled_cli_matches_the_composition(
        self, request, tmp_path, monkeypatch, capsys, fmt, text, mode
    ):
        before, after, swap = TRANSFORM_MODES[mode]
        src = tmp_path / f"p.{fmt.value}"
        src.write_bytes(text.encode(errors="surrogateescape"))
        out_fmt = next(f for f in FileFormat if f is not fmt) if swap else fmt
        out = tmp_path / f"out.{out_fmt.value}"
        argv = before + ["transform", "--input", str(src), "--output", str(out)] + after
        with monkeypatch.context() as m:
            m.setattr(cli, "transform_file", _composed_transform)
            expected = _transform_outcome(capsys, tmp_path, src, out, argv)
        request.getfixturevalue("pooled")
        assert _transform_outcome(capsys, tmp_path, src, out, argv) == expected

    @pytest.mark.parametrize("fmt", list(FileFormat))
    def test_rows_fn_sees_the_arrays_of_a_load(self, tmp_path, fmt):
        src = tmp_path / f"p.{fmt.value}"
        save_predictions(_sample(40), src)
        loaded = load_predictions(src)
        seen = []

        def rows_fn(preds):
            seen.append(preds)
            return preds

        fio.transform_file(src, tmp_path / f"out.{fmt.value}", rows_fn)
        (part,) = seen
        for array, expected in ((part.scores, loaded.scores), (part.labels, loaded.labels)):
            assert array.dtype == expected.dtype and array.flags.c_contiguous
            assert array.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("pool", [False, True], ids=["in_process", "pool"])
    def test_a_warning_is_shown_once(self, request, tmp_path, monkeypatch, pool):
        monkeypatch.setattr(fio, "_SPAN_BYTES", 8)
        if pool:
            request.getfixturevalue("pooled")
        src = tmp_path / "p.csv"
        save_predictions(_sample(40), src)

        def rows_fn(preds):
            warnings.warn("row warning", RuntimeWarning)
            return preds

        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fio.transform_file(src, out, rows_fn)
        assert [str(w.message) for w in caught] == ["row warning"]
        assert out.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("fmt", list(FileFormat))
    def test_in_place_runs_by_range_on_the_pool(self, tmp_path, monkeypatch, pooled, fmt):
        preds = _sample(40)
        expected = tmp_path / f"expected.{fmt.value}"
        save_predictions(apply_psi_dataset(preds, 2.0), expected)
        path = tmp_path / f"p.{fmt.value}"
        save_predictions(preds, path)
        spy = _spy_on_pools(monkeypatch)
        monkeypatch.setattr(fio, "load_predictions", mock.Mock(side_effect=AssertionError))
        argv = ["transform", "--input", str(path), "--output", str(path), "--psi", "2"]
        assert cli.main(argv) == 0
        spy.assert_called_once_with("fork")
        assert path.read_bytes() == expected.read_bytes()
        assert sorted(os.listdir(tmp_path)) == sorted([path.name, expected.name])

    @pytest.mark.parametrize(
        "fmt, text",
        [
            (FileFormat.CSV, H2 + "1,0.7,0.3\n" * 40 + "1,0.5,0.3\n" + "2,0.25,0.75\n" * 3),
            (
                FileFormat.JSONL,
                '{"label": 1, "scores": [0.7, 0.3]}\n' * 40
                + '{"label": 1, "scores": [0.5, 0.3]}\n'
                + '{"label": 2, "scores": [0.25, 0.75]}\n' * 3,
            ),
        ],
        ids=["csv", "jsonl"],
    )
    def test_late_bad_row_keeps_the_old_output(
        self, tmp_path, monkeypatch, capsys, pooled, fmt, text
    ):
        src = tmp_path / f"p.{fmt.value}"
        src.write_text(text)
        line = 42 if fmt is FileFormat.CSV else 41
        with pytest.raises(InvalidSimplexError) as expected:
            fio._load_by_line(src, fmt, ScoreKind.PROBABILITIES, False)
        assert expected.value.line == line
        out = tmp_path / f"out.{fmt.value}"
        out.write_bytes(b"old\n")
        writer = mock.Mock(wraps=fio._atomic_writer)
        monkeypatch.setattr(fio, "_atomic_writer", writer)
        argv = ["transform", "--input", str(src), "--output", str(out), "--psi", "2"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        # the ranges before the bad row were written to the temp file,
        # which was dropped when the range with the bad row declined
        writer.assert_called_once_with(str(out), "wb")
        assert out.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == sorted([src.name, out.name])

    @pytest.mark.parametrize("fmt", list(FileFormat))
    @pytest.mark.parametrize("failing", ["read", "rows_fn", "emit"])
    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch, pooled, fmt, failing):
        preds = _sample(40)
        src = tmp_path / f"p.{fmt.value}"
        save_predictions(preds, src)
        out = tmp_path / f"out.{fmt.value}"
        out.write_bytes(b"old\n")
        rows_fn = _transform_rows
        if failing == "read":
            monkeypatch.setattr(fio, "_read_span", _fail_in_worker)
        elif failing == "rows_fn":
            rows_fn = _fail_in_worker
        else:
            emit = "_csv_block" if fmt is FileFormat.CSV else "_jsonl_block"
            monkeypatch.setattr(fio, emit, _fail_in_worker)
        with pytest.raises(OSError) as raised:
            fio.transform_file(src, out, rows_fn)
        error = raised.value
        assert type(error) is OSError and error.errno == errno.EIO
        assert int(error.strerror.rsplit(" ", 1)[1]) != os.getpid()
        assert sorted(os.listdir(tmp_path)) == sorted([src.name, out.name])
        assert out.read_bytes() == b"old\n"


class TestReferenceParser:
    def test_csv_is_streamed(self, tmp_path):
        # a quoted first label sends the file to the line-by-line parser
        tenth = ",0.1000000000000000055511151231257827021181583404541015625"
        row = tenth * 10 + "\n"
        path = tmp_path / "p.csv"
        path.write_text(H10 + '"1"' + row + ("1" + row) * 7000)
        size = path.stat().st_size
        assert size > 4_000_000

        def whole_text_parser():
            # the parser as it was: the whole text, then an io.StringIO of it
            labels, rows, lines = fio._load_csv(io.StringIO(path.read_text()))
            scores = fio._validate_rows(np.asarray(rows, dtype=float), lines, False)
            return PredictionSet(scores, np.asarray(labels, dtype=int))

        def streaming_parser():
            return fio._load_by_line(path, FileFormat.CSV, ScoreKind.PROBABILITIES, False)

        peaks = []
        for parse in (whole_text_parser, streaming_parser):
            tracemalloc.start()
            try:
                assert parse().n == 7001
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] >= 3 * size

    @pytest.mark.parametrize(
        "text",
        [CSV_CORPUS["bad_utf8"], H2 + "1,abc,0.3\n" + "1,0.7,0.3\n" * 1000 + "\udcff\n"],
        ids=["bad_byte", "bad_row_then_bad_byte"],
    )
    def test_decode_error_names_the_file_offset(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode(errors="surrogateescape"))
        with pytest.raises(UnicodeDecodeError) as expected:
            path.read_text()
        with pytest.raises(UnicodeDecodeError) as raised:
            load_predictions(path)
        assert str(raised.value) == str(expected.value)
        assert raised.value.start > 8192  # past the first block a text file decodes


class TestWriters:
    @pytest.mark.parametrize("old", [None, "old\n"])
    def test_raising_body_leaves_no_temp_file(self, tmp_path, old):
        target = tmp_path / "out.csv"
        if old is not None:
            target.write_text(old)
        with pytest.raises(KeyboardInterrupt):
            with fio._atomic_writer(target) as fh:
                fh.write("new\n")
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == ([] if old is None else [target.name])
        if old is not None:
            assert target.read_text() == old

    def test_renormalize_matches_two_clip_formula(self):
        rng = np.random.default_rng(3)
        scores = rng.dirichlet(np.ones(7), size=500) * rng.uniform(0.5, 2.0, (500, 1))
        scores[::7, 0] = -5e-7
        scores[::11, 1] = 0.0
        before = scores.copy()
        expected = np.clip(scores, 0.0, None) / np.clip(scores, 0.0, None).sum(axis=1)[:, None]
        assert fio._validate_rows(scores, None, True).tobytes() == expected.tobytes()
        assert scores.tobytes() == before.tobytes()


def _reference_text(preds, fmt):
    """The emitter's output as written one value at a time with format()."""
    if fmt is FileFormat.CSV:
        lines = ["label," + ",".join(f"s{i}" for i in range(1, preds.k + 1))]
        lines += [
            ",".join([str(int(label))] + [format(float(v), ".17g") for v in row])
            for label, row in zip(preds.labels, preds.scores)
        ]
    else:
        lines = [
            json.dumps(
                {"label": int(label), "scores": [float(format(float(v), ".17g")) for v in row]}
            )
            for label, row in zip(preds.labels, preds.scores)
        ]
    return "\n".join(lines) + "\n"


ONE_ULP_BELOW_ONE = float(np.nextafter(1.0, 0.0))
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e-17, ONE_ULP_BELOW_ONE]


@st.composite
def prediction_sets(draw):
    k = draw(st.sampled_from([2, 1000]))
    n = draw(st.integers(1, 3))
    labels = np.array(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    if draw(st.booleans()):
        values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
        scores = draw(hnp.arrays(np.float64, (n, k), elements=values))
        return PredictionSet(scores, labels, ScoreKind.LOGITS)
    rows = []
    for _ in range(n):
        row = np.full(k, draw(st.sampled_from([0.0, -0.0])))
        # at most four tail entries of at most 0.24 each, so the top entry
        # 1 - sum(tail) stays a probability
        tail = draw(
            st.lists(
                st.one_of(st.sampled_from(EDGE_VALUES[:6]), st.floats(0.0, 0.24)),
                max_size=min(k - 1, 4),
            )
        )
        cols = draw(st.permutations(range(k)))
        row[cols[1 : 1 + len(tail)]] = tail
        top = 1.0 - sum(tail)
        row[cols[0]] = ONE_ULP_BELOW_ONE if top == 1.0 else top
        rows.append(row)
    return PredictionSet(np.array(rows), labels)


class TestRoundTripProperty:
    @given(prediction_sets())
    @settings(max_examples=60, deadline=None)
    def test_save_load_is_exact_in_both_formats(self, preds):
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in FileFormat:
                first = Path(tmp) / f"a.{fmt.value}"
                second = Path(tmp) / f"b.{fmt.value}"
                save_predictions(preds, first)
                assert first.read_text() == _reference_text(preds, fmt)
                with mock.patch.object(fio, "_load_by_line", side_effect=AssertionError):
                    loaded = load_predictions(first, kind=preds.kind)
                assert loaded.scores.tobytes() == preds.scores.tobytes()
                np.testing.assert_array_equal(loaded.labels, preds.labels)
                save_predictions(loaded, second)
                assert second.read_bytes() == first.read_bytes()


    @pytest.mark.parametrize("fmt", list(FileFormat))
    def test_empty_set_writes_reference_text(self, tmp_path, fmt):
        preds = PredictionSet(np.empty((0, 3)), np.empty(0, dtype=int))
        path = tmp_path / f"empty.{fmt.value}"
        save_predictions(preds, path)
        assert path.read_text() == _reference_text(preds, fmt)


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
