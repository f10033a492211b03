"""Prediction-file ingestion and emission.

Two formats carry the same payload:

* CSV with header ``label,s1,...,sK`` and one row per sample;
* JSONL with one object ``{"label": int, "scores": [...]}`` per line.

Labels are 1-based integers in ``[1..K]``.  Probability rows must sum to
one within ``ROW_SUM_TOL`` (1e-6) unless renormalization is requested.  CSV
output writes each score as ``'%.17g'`` does (17 significant digits) and
JSONL output as ``repr`` does (the shortest text that reads back to the
same float), so a save/load round trip is lossless.  Both texts come from
one array kernel, ``_floattext.rows``, byte for byte.  All writes go
through a temp file and an atomic rename.

A file is read by a fast pass over byte ranges of its body, each cut
just after a ``\n`` byte: a CSV range in one ``np.loadtxt`` call, a JSONL
range one decoded line at a time.  One ordered driver, ``_ranges``, runs
one job on every range: the range is parsed, renormalized if asked and
handed to a ``finish`` function, which gives its k and its part, and the
driver checks that the ranges agree on k.  ``load_predictions`` copies
the parts' rows, in order, into one preallocated ``(n, k)`` array, which
it checks once, by ``PredictionSet``.  ``transform_file`` builds, maps
and formats a set per range, and only the output bytes come back, written
in order to a temp file.  So the caller never holds the ``(n, k)``
arrays: measured from a launcher with ``wait4``, a ``transform``
command's peak RSS fell from 76 to 36 MiB on a 41 MB CSV (k = 10), from
82 to 37 MiB on 39 MB of CSV logits written as JSONL, and from 83 to
36 MiB on a 70 MB JSONL (k = 1000).

The pass accepts only plain rows (unquoted CSV fields, integer labels,
finite scores, no blank-looking or comment lines, JSONL objects whose
only strings are the two keys).  On anything else, when two ranges
disagree on k, or when a check fails or warns, it declines, and a
refusal has one form: ``_Declined``, raised where it happens.  The
line-by-line parser then re-reads the file (a transform runs the
composed load, transform and save instead) and alone decides the
result, so the accepted syntax, the errors, their line numbers and the
warnings are those of that parser.

Parsing floats is single-threaded Python and numpy work (about
0.1-0.35 us per value), so from ``_POOL_MIN_BYTES`` (4 MiB) of input file
the ranges run on a pool of forked processes, one per CPU the process
may use.  The size is a measured break-even: on 2 cores, with the pool
against without it, a CSV (k = 10) or JSONL (k = 1000) load took 1.10x
and 1.00x the time at 4 MiB, 0.91x and 0.86x at 6 MiB.  A save formats
its output a block of rows at a time in the caller's process, written in
order to the temp file.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import functools
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
# bytes per range a prediction file's body is read in
_SPAN_BYTES = 1 << 20
# input-file bytes from which the ranges run on a fork pool (see the
# module docstring)
_POOL_MIN_BYTES = 1 << 22

# in a pool worker: the function its tasks are run through, and a shared
# flag the caller sets when it wants no more results
_job = _stop = None


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _pool_size(size: int) -> int:
    """Processes to read an input file of ``size`` bytes with: one per CPU
    this process may run on from ``_POOL_MIN_BYTES`` up, else 1 (no pool)."""
    return 1 if size < _POOL_MIN_BYTES else _cpu_count()


def _set_job(job, stop) -> None:
    global _job, _stop
    _job, _stop = job, stop


def _run_job(task):
    return None if _stop.value else _job(*task)


@contextlib.contextmanager
def _results(job, tasks: list[tuple], workers: int):
    """An iterator over ``job(*task)`` for each task, in order.

    With two or more workers and tasks, the tasks run on a pool of forked
    processes, which inherit ``job`` and the arrays it holds without
    pickling and start in milliseconds; a spawned worker would pay a whole
    interpreter start (about 0.08 s), and could not take a transform's
    ``rows_fn`` closure or synth's training job.  Forking is safe here
    because the workers only read files, parse or format text and run
    numpy arithmetic with modules already imported, so they take no lock
    another thread of the caller may have held at the fork.  That holds for
    synth's workers too, which train and score models with BLAS matrix
    products: numpy's OpenBLAS builds run their threads on pthreads, not
    OpenMP, and stop them at a fork (a ``pthread_atfork`` handler), so a
    worker starts its own.  A BLAS whose threads do not survive a fork,
    such as one built on GNU OpenMP, can hang a worker that multiplies
    after its caller has.  A worker's exception is raised here when its
    result is reached, and the pool's processes are gone once the block
    exits.

    A block that exits before it has read every result, by an exception
    or a return, sets the shared stop flag, so the tasks not yet started
    return None at once, and waits for the workers to finish.  Killing
    them instead (``Pool.terminate``) can kill one that holds the lock on
    the result pipe, and the pool's task thread then waits for that lock
    forever.  Only an interrupt (``KeyboardInterrupt``, ``SystemExit``),
    which may have stopped the workers too, still terminates the pool.
    """
    if workers < 2 or len(tasks) < 2:
        yield (job(*task) for task in tasks)
        return
    import multiprocessing  # here: starting the CLI does not pay for it

    context = multiprocessing.get_context("fork")
    stop = context.RawValue("b", 0)
    pool = context.Pool(min(workers, len(tasks)), _set_job, (job, stop))
    try:
        yield pool.imap(_run_job, tasks)
    except (KeyboardInterrupt, SystemExit):
        pool.terminate()
        raise
    finally:
        stop.value = 1
        pool.close()
        pool.join()


@contextlib.contextmanager
def _atomic_writer(path, mode: str = "w"):
    # a handle (text, or binary with mode "wb") on a sibling temp file,
    # renamed over ``path`` on success and removed on any exception
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp-{os.getpid()}")
    try:
        fh = open(tmp, mode)
    except OSError as exc:
        exc.filename = os.fspath(path)  # the caller's file, not the temp file
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        if isinstance(value, bool):
            raise ParseError(f"score {value!r} is not a number", line)
        try:
            out.append(float(value))
        except (TypeError, ValueError):
            raise ParseError(f"score {value!r} is not a number", line) from None
        except OverflowError:  # an integer beyond the float range
            raise ParseError("non-finite score", line) from None
    if not all(np.isfinite(out)):
        raise ParseError("non-finite score", line)
    return out


def _validate_rows(scores: np.ndarray, lines: list[int] | None, renormalize: bool) -> np.ndarray:
    # ``lines`` is None in the fast pass, whose errors are not shown
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
    out = np.clip(scores, 0.0, None)
    out /= out.sum(axis=1)[:, None]
    return out


def load_predictions(
    path,
    file_format: FileFormat | None = None,
    kind: ScoreKind = ScoreKind.PROBABILITIES,
    renormalize: bool = False,
) -> PredictionSet:
    """Parse a prediction file into a typed set.

    Malformed rows raise ``ParseError``/``InconsistentKError``/
    ``InvalidSimplexError`` carrying the 1-based file line number.  A
    well-formed file is read by the fast pass, on a fork pool when large;
    any other goes through the line-by-line parser, which decides the
    error and its line.
    """
    fmt = file_format or detect_format(path)
    try:
        with _ranges(path, fmt, _rows, kind, renormalize) as parts:
            # counted while any pool workers parse: at least the file's rows
            with open(path, "rb") as fh:
                n_max = 1 + sum(_line_ends(block) for block in iter(lambda: fh.read(1 << 20), b""))
            labels = np.empty(n_max, dtype=np.int64)
            scores = None
            n = 0
            for k, (part_labels, part_scores) in parts:
                if scores is None:
                    scores = np.empty((n_max, k))
                m = len(part_labels)
                labels[n : n + m] = part_labels
                scores[n : n + m] = part_scores
                n += m
            try:
                return PredictionSet(scores[:n], labels[:n], kind)
            except CalibrationError:
                raise _Declined from None  # the line-by-line parser names the line
    except _Declined:
        # the line-by-line parser also reports a bad byte's file offset
        return _load_by_line(path, fmt, kind, renormalize)


def _load_by_line(path, fmt: FileFormat, kind: ScoreKind, renormalize: bool) -> PredictionSet:
    """The reference parser: one row at a time, each error with its line.

    It defines the accepted syntax; the fast pass only ever returns what
    this parser would.
    """
    if fmt is FileFormat.CSV:
        _check_decodes(path)
        # the lines read_text() would give, without holding the text
        with open(path) as fh:
            labels, rows, lines = _load_csv(fh)
    else:
        labels, rows, lines = _load_jsonl(Path(path).read_text())
    if not rows:
        raise ParseError(f"no data rows in {path}")
    scores = np.asarray(rows, dtype=float)
    if kind is ScoreKind.PROBABILITIES:
        scores = _validate_rows(scores, lines, renormalize)
    return PredictionSet(scores, np.asarray(labels, dtype=int), kind)


def _check_decodes(path) -> None:
    """Raise what ``Path.read_text`` raises on a file that does not decode,
    with the bad byte's file offset, before any row is parsed."""
    try:
        with open(path) as fh:
            while fh.read(1 << 20):
                pass
    except UnicodeDecodeError:
        Path(path).read_text()
        raise


def _csv_header(k: int) -> list[str]:
    return ["label"] + [f"s{i}" for i in range(1, k + 1)]


def _line_ends(data: bytes) -> int:
    # with one added, the most lines any newline convention splits data into
    return data.count(b"\n") + data.count(b"\r")


def _spans(path, start: int, size: int) -> list[tuple[int, int]]:
    """Byte ranges of about ``_SPAN_BYTES`` covering ``start`` to ``size``,
    every cut just after a ``\n`` byte, so that no line or UTF-8 character
    is split."""
    parts = -(-(size - start) // _SPAN_BYTES)
    cuts = [start]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            fh.seek(max(start + (size - start) * i // parts, cuts[-1]))
            fh.readline()
            if cuts[-1] < fh.tell() < size:
                cuts.append(fh.tell())
    return list(zip(cuts, cuts[1:] + [size]))


def _read_span(path, start: int, stop: int) -> bytes:
    with open(path, "rb") as fh:
        fh.seek(start)
        return fh.read(stop - start)


def _span_text(data: bytes):
    # the span as a text file, decoded as open(path, newline="") would
    return _io.TextIOWrapper(_io.BytesIO(data), newline="")


class _Declined(Exception):
    """A file the fast pass leaves to the line-by-line parser."""


@contextlib.contextmanager
def _ranges(path, fmt: FileFormat, finish, kind: ScoreKind, renormalize: bool):
    """An iterator over ``(k, part)`` from ``_range_job`` for each byte
    range of a file body that has rows, in order, on a fork pool when the
    file is large.  ``_Declined`` comes from a header ``_body_parser``
    refuses, a range ``_range_job`` refuses, two ranges that disagree on k
    and, once the ranges are spent, a body without rows.
    """
    body, parse = _body_parser(path, fmt)
    size = os.path.getsize(path)
    tasks = [(path, *span) for span in _spans(path, body, size)]
    job = functools.partial(_range_job, finish, kind, renormalize, parse)
    with _results(job, tasks, _pool_size(size)) as parts:
        yield _agreeing(parts)


def _agreeing(parts):
    k = None
    for part in parts:
        if part[0] == 0:
            continue
        if k is None:
            k = part[0]
        elif part[0] != k:
            raise _Declined
        yield part
    if k is None:
        raise _Declined  # no rows: the line-by-line parser names the error


def _range_job(finish, kind: ScoreKind, renormalize: bool, parse, path, start: int, stop: int):
    """``finish(labels, scores)``, which gives ``(k, part)``, on the rows of
    one byte range, renormalized if asked; ``(0, None)`` for a range without
    rows.  Where ``parse``, a check or ``finish`` refuses, fails to parse or
    decode, or warns (``loadtxt`` warns on a range without rows), it raises
    ``_Declined``: the line-by-line parser then decides the error and shows
    a warning once, not per range.  Any other exception, such as an
    ``OSError``, reaches the caller as itself.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, scores = parse(path, start, stop)
            if len(labels) == 0:
                return 0, None
            if kind is ScoreKind.PROBABILITIES and renormalize:
                scores = _validate_rows(scores, None, True)
            return finish(labels, scores)
    except (CalibrationError, ValueError, TypeError, OverflowError, Warning):
        raise _Declined from None


def _rows(labels, scores):
    # a load's part: the range's rows, checked once they are all read
    return scores.shape[1], (labels, scores)


def _body_parser(path, fmt: FileFormat):
    """The byte offset of a file's body and the function that parses one
    byte range of it, ``parse(path, start, stop)``.  It raises
    ``_Declined`` for a CSV header that does not decode or that the
    line-by-line parser might read differently: quoted or odd, or ended by
    a lone carriage return.

    A CSV range is read by one ``np.loadtxt`` call, which refuses quoted
    fields, ``1_0`` or ``1.0`` labels and whitespace-only, ``#`` or ragged
    lines.  A JSONL line is taken only when it is an object whose only
    strings are its two keys, with an ``int`` label and a list of ``k``
    numbers.  ``parse`` raises ``_Declined`` where it refuses its range,
    and lets its parse errors rise.  Non-finite scores and labels out of
    range are left to the caller's checks.
    """
    if fmt is FileFormat.JSONL:
        return 0, _jsonl_rows
    try:
        with open(path, newline="") as fh:
            header = fh.readline()
            body = fh.tell()
    except UnicodeDecodeError:
        raise _Declined from None
    names = header.removesuffix("\n").removesuffix("\r")
    k = names.count(",")
    # readline also stops at a lone carriage return; the csv module
    # decides what such a header means
    if (
        not header.endswith("\n")
        or k < 2
        or [h.strip() for h in names.split(",")] != _csv_header(k)
    ):
        raise _Declined
    dtype = np.dtype([("label", np.int64), ("scores", np.float64, (k,))])
    return body, functools.partial(_csv_rows, dtype)


def _csv_rows(dtype, path, start: int, stop: int):
    """One byte range of a CSV body from one ``np.loadtxt`` call."""
    text = _span_text(_read_span(path, start, stop))
    table = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    # contiguous, as the arrays of a whole file are
    return np.ascontiguousarray(table["label"]), np.ascontiguousarray(table["scores"])


def _jsonl_rows(path, start: int, stop: int):
    """One byte range of a JSONL file; ``_Declined`` where a line is not plain."""
    data = _read_span(path, start, stop)
    # a plain row has no letter t or f, so no true or false
    if b"t" in data or b"f" in data:
        raise _Declined
    labels = np.empty(_line_ends(data) + 1, dtype=np.int64)
    scores = None
    n = 0
    for raw in _span_text(data):
        if raw.isspace():
            continue
        # any other string (a string score, an extra field) takes the
        # line-by-line parser
        if raw.count('"') != 4:
            raise _Declined
        obj = json.loads(raw)
        if type(obj) is not dict:
            raise _Declined
        label, row = obj.get("label"), obj.get("scores")
        if type(label) is not int or type(row) is not list:
            raise _Declined
        if scores is None:
            if len(row) < 2:
                raise _Declined
            scores = np.empty((len(labels), len(row)))
        if len(row) != scores.shape[1]:
            raise _Declined
        scores[n] = row
        labels[n] = label
        n += 1
    if scores is None:
        return labels[:0], np.empty((0, 0))
    return labels[:n], scores[:n]


def _load_csv(lines):
    reader = csv.reader(lines)
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
    emit = _csv_block if fmt is FileFormat.CSV else _jsonl_block
    with _atomic_writer(path, "wb") as fh:
        if fmt is FileFormat.CSV:
            fh.write((",".join(_csv_header(k)) + "\n").encode())
        for start in range(0, n, step):
            fh.write(emit(preds.labels[start : start + step], preds.scores[start : start + step]))
        if fmt is FileFormat.JSONL and n == 0:
            fh.write(b"\n")


def transform_file(
    src,
    dst,
    rows_fn,
    kind: ScoreKind = ScoreKind.PROBABILITIES,
    renormalize: bool = False,
    in_fmt: FileFormat | None = None,
    out_fmt: FileFormat | None = None,
) -> None:
    """Write ``rows_fn(load_predictions(src, ...))`` to ``dst`` as
    :func:`save_predictions` would, one byte range at a time.

    ``rows_fn`` maps a :class:`PredictionSet` to one of as many rows, each
    output row a function of its input row alone.  Each range of ``src``
    is parsed, renormalized if asked, checked, sent through ``rows_fn`` and
    formatted in one job, on a fork pool when the file is large, and only
    its output bytes come back to be written in order.  Where the fast
    pass declines the file (a refused range, a check or ``rows_fn`` that
    raises ``CalibrationError`` or warns, ranges that disagree on k) or
    ``dst`` cannot be opened, the partial output is dropped and the
    composed load, ``rows_fn`` and save run instead, so they alone decide
    the errors, their lines and the warnings.
    """
    in_fmt = in_fmt or detect_format(src)
    out_fmt = out_fmt or detect_format(dst)
    emit = _csv_block if out_fmt is FileFormat.CSV else _jsonl_block
    finish = functools.partial(_transformed, rows_fn, kind, emit)
    ranges = _ranges(src, in_fmt, finish, kind, renormalize)
    try:
        with ranges as parts, contextlib.ExitStack() as stack:
            # the pool forks before the temp file opens, so no worker holds it
            try:
                fh = stack.enter_context(_atomic_writer(dst, "wb"))
            except OSError:
                raise _Declined from None  # reported by the save, after any input error
            for i, (k, block) in enumerate(parts):
                if i == 0 and out_fmt is FileFormat.CSV:
                    fh.write((",".join(_csv_header(k)) + "\n").encode())
                fh.write(block)
        return
    except _Declined:
        pass
    save_predictions(rows_fn(load_predictions(src, in_fmt, kind, renormalize)), dst, out_fmt)


def _transformed(rows_fn, kind: ScoreKind, emit, labels, scores):
    # a transform's part: the range's rows as a set, through rows_fn, as text
    preds = rows_fn(PredictionSet(scores, labels, kind))
    return preds.k, emit(preds.labels, preds.scores)


def _csv_block(labels, scores) -> bytes:
    # each value as "%.17g" formats it; imported on first use, so that
    # starting the CLI does not load the kernel
    from . import _floattext

    return _floattext.rows(labels, scores, b"", b",", b",", b"\n", False)


def _jsonl_block(labels, scores) -> bytes:
    # the text of json.dumps({"label": label, "scores": row}): for finite
    # floats, each value's shortest round-trip repr
    from . import _floattext

    head, mid = b'{"label": ', b', "scores": ['
    return _floattext.rows(labels, scores, head, mid, b", ", b"]}\n", True)


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
