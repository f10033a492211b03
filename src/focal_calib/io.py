"""Prediction-file ingestion and emission.

Two formats carry the same payload:

* CSV with header ``label,s1,...,sK`` and one row per sample;
* JSONL with one object ``{"label": int, "scores": [...]}`` per line.

Labels are 1-based integers in ``[1..K]``.  Probability rows must sum to
one within ``ROW_SUM_TOL`` (1e-6) unless renormalization is requested.  Numeric output
uses 17 significant digits so a save/load round trip is lossless.  All
writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import csv
import enum
import io as _io
import json
import os
from pathlib import Path

import numpy as np

from .core import ROW_SUM_TOL, validate_simplex_rows
from .errors import InconsistentKError, InvalidSimplexError, ParseError
from .metrics import PredictionSet, ScoreKind


class FileFormat(enum.Enum):
    CSV = "csv"
    JSONL = "jsonl"


def detect_format(path) -> FileFormat:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return FileFormat.CSV
    if suffix in (".jsonl", ".ndjson", ".json"):
        return FileFormat.JSONL
    raise ParseError(f"cannot infer file format from suffix {suffix!r}; pass it explicitly")


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, target)


def _format_number(x: float) -> str:
    return format(float(x), ".17g")


def _parse_label(raw, line: int, k: int) -> int:
    if isinstance(raw, bool):
        raise ParseError(f"label {raw!r} is not an integer", line)
    try:
        label = int(raw)
    except (TypeError, ValueError):
        raise ParseError(f"label {raw!r} is not an integer", line) from None
    if isinstance(raw, float) and raw != label:
        raise ParseError(f"label {raw!r} is not an integer", line)
    if not 1 <= label <= k:
        raise ParseError(f"label {label} outside [1..{k}] (labels are 1-based)", line)
    return label


def _parse_scores(raw_values, line: int, k: int) -> list[float]:
    if len(raw_values) != k:
        raise InconsistentKError(
            f"expected {k} scores, found {len(raw_values)}", line
        )
    out = []
    for value in raw_values:
        try:
            out.append(float(value))
        except (TypeError, ValueError):
            raise ParseError(f"score {value!r} is not a number", line) from None
    if not all(np.isfinite(out)):
        raise ParseError("non-finite score", line)
    return out


def _validate_rows(scores: np.ndarray, lines: list[int], renormalize: bool) -> np.ndarray:
    if not renormalize:
        return validate_simplex_rows(scores, ROW_SUM_TOL, lines)
    if scores.min() < -ROW_SUM_TOL:
        bad = int(np.flatnonzero(scores.min(axis=1) < -ROW_SUM_TOL)[0])
        raise InvalidSimplexError("negative score cannot be renormalized", lines[bad])
    sums = scores.sum(axis=1)
    if np.any(sums <= 0.0):
        bad = int(np.flatnonzero(sums <= 0.0)[0])
        raise InvalidSimplexError("row sum is not positive", lines[bad])
    return np.clip(scores, 0.0, None) / np.clip(scores, 0.0, None).sum(axis=1)[:, None]


def load_predictions(
    path,
    file_format: FileFormat | None = None,
    kind: ScoreKind = ScoreKind.PROBABILITIES,
    renormalize: bool = False,
) -> PredictionSet:
    """Parse a prediction file into a typed set.

    Malformed rows raise ``ParseError``/``InconsistentKError``/
    ``InvalidSimplexError`` carrying the 1-based file line number.
    """
    fmt = file_format or detect_format(path)
    text = Path(path).read_text()
    if fmt is FileFormat.CSV:
        labels, rows, lines = _load_csv(text)
    else:
        labels, rows, lines = _load_jsonl(text)
    if not rows:
        raise ParseError(f"no data rows in {path}")
    scores = np.asarray(rows, dtype=float)
    if kind is ScoreKind.PROBABILITIES:
        scores = _validate_rows(scores, lines, renormalize)
    return PredictionSet(scores, np.asarray(labels, dtype=int), kind)


def _load_csv(text: str):
    reader = csv.reader(_io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("file is empty") from None
    expected = ["label"] + [f"s{i}" for i in range(1, len(header))]
    if len(header) < 3 or [h.strip() for h in header] != expected:
        raise ParseError(f"bad header {header!r}; expected label,s1,...,sK", 1)
    k = len(header) - 1
    labels, rows, lines = [], [], []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != k + 1:
            raise InconsistentKError(f"expected {k + 1} columns, found {len(row)}", line_no)
        labels.append(_parse_label(row[0].strip(), line_no, k))
        rows.append(_parse_scores([v.strip() for v in row[1:]], line_no, k))
        lines.append(line_no)
    return labels, rows, lines


def _load_jsonl(text: str):
    labels, rows, lines = [], [], []
    k = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no) from None
        if not isinstance(obj, dict) or "label" not in obj or "scores" not in obj:
            raise ParseError('object must have "label" and "scores" fields', line_no)
        scores = obj["scores"]
        if not isinstance(scores, list):
            raise ParseError('"scores" must be a list', line_no)
        if k is None:
            k = len(scores)
            if k < 2:
                raise ParseError(f"need at least 2 scores per row, found {k}", line_no)
        labels.append(_parse_label(obj["label"], line_no, k))
        rows.append(_parse_scores(scores, line_no, k))
        lines.append(line_no)
    return labels, rows, lines


def save_predictions(preds: PredictionSet, path, file_format: FileFormat | None = None) -> None:
    """Emit a prediction set; the inverse of :func:`load_predictions`."""
    fmt = file_format or detect_format(path)
    if fmt is FileFormat.CSV:
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label"] + [f"s{i}" for i in range(1, preds.k + 1)])
        for label, row in zip(preds.labels, preds.scores):
            writer.writerow([int(label)] + [_format_number(v) for v in row])
        atomic_write_text(path, buf.getvalue())
    else:
        out_lines = [
            json.dumps({"label": int(label), "scores": [float(_format_number(v)) for v in row]})
            for label, row in zip(preds.labels, preds.scores)
        ]
        atomic_write_text(path, "\n".join(out_lines) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    """Small helper for metric/curve exports (17-significant-digit floats)."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_format_number(v) if isinstance(v, (int, float, np.floating)) else v for v in row]
        )
    atomic_write_text(path, buf.getvalue())
