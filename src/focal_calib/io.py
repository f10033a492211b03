"""Prediction-file ingestion and emission.

Two formats carry the same payload:

* CSV with header ``label,s1,...,sK`` and one row per sample;
* JSONL with one object ``{"label": int, "scores": [...]}`` per line.

Labels are 1-based integers in ``[1..K]``.  Probability rows must sum to
one within ``ROW_SUM_TOL`` (1e-6) unless renormalization is requested.  Numeric output
uses 17 significant digits so a save/load round trip is lossless.  All
writes go through a temp file and an atomic rename.

Each file is read in one vectorized pass: the CSV body in a single
``np.loadtxt`` call, JSONL one decoded line at a time into a preallocated
``(n, k)`` array, with the rows checked once, by ``PredictionSet``.  The
pass accepts only plain rows (unquoted CSV fields, integer labels, finite
scores, no blank-looking or comment lines, JSONL objects whose only
strings are the two keys).  On anything else, or when a check fails, the
line-by-line parser re-reads the file and alone decides the result, so
the accepted syntax, the errors and their line numbers are those of that
parser.  Output is formatted a block of rows at a time and streamed to
the temp file.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import io as _io
import json
import os
import warnings
from pathlib import Path

import numpy as np

from .core import ROW_SUM_TOL, validate_simplex_rows
from .errors import CalibrationError, InconsistentKError, InvalidSimplexError, ParseError
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


# values formatted per block when emitting prediction files
_BLOCK_VALUES = 1 << 17


@contextlib.contextmanager
def _atomic_writer(path):
    # a text handle on a sibling temp file, renamed over ``path`` on success
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp-{os.getpid()}")
    with open(tmp, "w") as fh:
        yield fh
    os.replace(tmp, target)


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    with _atomic_writer(path) as fh:
        fh.write(text)


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


def _validate_rows(scores: np.ndarray, lines: list[int] | None, renormalize: bool) -> np.ndarray:
    # ``lines`` is None in the vectorized pass, whose errors are not shown
    if not renormalize:
        return validate_simplex_rows(scores, ROW_SUM_TOL, lines)
    if scores.min() < -ROW_SUM_TOL:
        bad = int(np.flatnonzero(scores.min(axis=1) < -ROW_SUM_TOL)[0])
        raise InvalidSimplexError(
            "negative score cannot be renormalized", None if lines is None else lines[bad]
        )
    sums = scores.sum(axis=1)
    if np.any(sums <= 0.0):
        bad = int(np.flatnonzero(sums <= 0.0)[0])
        raise InvalidSimplexError("row sum is not positive", None if lines is None else lines[bad])
    return np.clip(scores, 0.0, None) / np.clip(scores, 0.0, None).sum(axis=1)[:, None]


def load_predictions(
    path,
    file_format: FileFormat | None = None,
    kind: ScoreKind = ScoreKind.PROBABILITIES,
    renormalize: bool = False,
) -> PredictionSet:
    """Parse a prediction file into a typed set.

    Malformed rows raise ``ParseError``/``InconsistentKError``/
    ``InvalidSimplexError`` carrying the 1-based file line number.  A
    well-formed file is read in one vectorized pass; any other goes
    through the line-by-line parser, which decides the error and its line.
    """
    fmt = file_format or detect_format(path)
    try:
        scanned = _scan_csv(path) if fmt is FileFormat.CSV else _scan_jsonl(path)
    except UnicodeDecodeError:
        scanned = None  # the reference parser reports the byte's file offset
    if scanned is not None:
        labels, scores = scanned
        try:
            if kind is ScoreKind.PROBABILITIES and renormalize:
                # a non-finite row would warn here; the set below rejects it
                with np.errstate(invalid="ignore"):
                    scores = _validate_rows(scores, None, True)
            return PredictionSet(scores, labels, kind)
        except CalibrationError:
            pass  # the line-by-line parser names the failing line
    return _load_by_line(path, fmt, kind, renormalize)


def _load_by_line(path, fmt: FileFormat, kind: ScoreKind, renormalize: bool) -> PredictionSet:
    """The reference parser: one row at a time, each error with its line.

    It defines the accepted syntax; the vectorized pass only ever returns
    what this parser would.
    """
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


def _csv_header(k: int) -> list[str]:
    return ["label"] + [f"s{i}" for i in range(1, k + 1)]


def _scan_csv(path):
    """Labels and scores of a plain CSV file from one ``np.loadtxt`` call.

    Returns None for any file the line-by-line parser might reject or read
    differently: a quoted or odd header, a header with no rows, or a body
    that ``loadtxt`` refuses (quoted fields, ``1_0`` or ``1.0`` labels,
    whitespace-only, ``#`` or ragged lines).
    Non-finite scores and labels out of range are left to the caller's
    checks.
    """
    with open(path, newline="") as fh:
        header = fh.readline()
        names = header.removesuffix("\n").removesuffix("\r")
        k = names.count(",")
        # readline also stops at a lone carriage return; the csv module
        # decides what such a header means
        if (
            not header.endswith("\n")
            or k < 2
            or [h.strip() for h in names.split(",")] != _csv_header(k)
        ):
            return None
        dtype = np.dtype([("label", np.int64), ("scores", np.float64, (k,))])
        try:
            with warnings.catch_warnings():
                # a body with no rows is only a warning to loadtxt
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, UserWarning):
            return None
    if table.size == 0:
        return None
    return table["label"].copy(), np.ascontiguousarray(table["scores"])


def _scan_jsonl(path):
    """Labels and scores of a plain JSONL file, one decoded line at a time.

    Returns None unless every non-blank line is an object whose only
    strings are its two keys, with an ``int`` label and a list of ``k``
    numbers.  Non-finite scores and labels out of range are left to the
    caller's checks.
    """
    with open(path, newline="") as fh:
        n_max = sum(1 for _ in fh)
        fh.seek(0)
        labels = np.empty(n_max, dtype=np.int64)
        scores = None
        n = 0
        for raw in fh:
            if raw.isspace():
                continue
            # any other string (a string score, an extra field) takes the
            # line-by-line parser
            if raw.count('"') != 4:
                return None
            try:
                obj = json.loads(raw)
            except ValueError:
                return None
            if type(obj) is not dict:
                return None
            label, row = obj.get("label"), obj.get("scores")
            if type(label) is not int or type(row) is not list:
                return None
            if scores is None:
                if len(row) < 2:
                    return None
                scores = np.empty((n_max, len(row)))
            if len(row) != scores.shape[1]:
                return None
            try:
                scores[n] = row
                labels[n] = label
            except (TypeError, ValueError, OverflowError):
                return None
            n += 1
    if n == 0:
        return None
    return labels[:n], scores[:n]


def _load_csv(text: str):
    reader = csv.reader(_io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("file is empty") from None
    if len(header) < 3 or [h.strip() for h in header] != _csv_header(len(header) - 1):
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
    n, k = preds.n, preds.k
    step = max(1, _BLOCK_VALUES // k)
    with _atomic_writer(path) as fh:
        if fmt is FileFormat.CSV:
            fh.write(",".join(_csv_header(k)) + "\n")
            # "%.17g" is the text format(v, ".17g") gives; one % per block
            row_format = "%d," + ",".join(["%.17g"] * k) + "\n"
            for start in range(0, n, step):
                block = np.column_stack(
                    (preds.labels[start : start + step], preds.scores[start : start + step])
                )
                fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))
        else:
            # json writes each float's shortest repr, which reads back exactly
            for start in range(0, n, step):
                labels = preds.labels[start : start + step].tolist()
                rows = preds.scores[start : start + step].tolist()
                fh.writelines(
                    json.dumps({"label": label, "scores": row}) + "\n"
                    for label, row in zip(labels, rows)
                )
            if n == 0:
                fh.write("\n")


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
