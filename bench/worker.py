"""Timed passes of one workload, in one process.

Usage: ``python3 worker.py PLAN.json RESULT.json`` from the work
directory, with ``src`` on ``PYTHONPATH``.  The plan lists the CLI
argument lists of one pass, the output directory, the run length in
seconds and whether to trace.  The worker repeats whole passes through
``focal_calib.cli.main`` until the run length is spent.  With tracing on
it runs one warm-up pass, then alternates traced and untraced passes, so
both see the same machine state.  It writes per pass and per command the exit code, the wall time
and, for traced passes, the spans; then the output of each command in
the last pass.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import sys
import time
import traceback

import focal_calib.cli as cli

import tracing

thresholds_memo = importlib.import_module("focal_calib.thresholds").thresholds


def run_command(argv: list[str]) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    # each command pays what a fresh CLI call pays for the thresholds memo
    thresholds_memo.cache_clear()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is a failed command, like the real CLI's exit 1
            traceback.print_exc()
            rc = 1
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def summarize(spans) -> dict:
    """Per span name: total seconds, calls, count totals, and top-level seconds."""
    out: dict[str, dict] = {}
    for name, seconds, parent, counts in spans:
        entry = out.setdefault(name, {"s": 0.0, "calls": 0, "top_s": 0.0})
        entry["s"] += seconds
        entry["calls"] += 1
        if parent is None:
            entry["top_s"] += seconds
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
    return out


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = tracing.Tracer()
    passes, outputs, unstable = [], None, set()
    start = time.perf_counter()
    while True:
        # Every pass writes into an empty output directory, as a first CLI
        # call would.  Replacing a file already written back to disk makes
        # the unlink free its blocks synchronously, which here cost over a
        # second per 70 MB output and grew with the age of the file.
        shutil.rmtree(plan["out"], ignore_errors=True)
        os.mkdir(plan["out"])
        traced = bool(plan["trace"]) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        commands, texts = [], []
        try:
            for argv in plan["commands"]:
                rc, seconds, stdout, stderr = run_command(argv)
                commands.append({"rc": rc, "s": seconds, "spans": summarize(tracer.take())})
                texts.append({"stdout": stdout, "stderr": stderr})
        finally:
            if traced:
                tracer.uninstall()
        if outputs is not None:
            unstable.update(
                i for i, (old, new) in enumerate(zip(outputs, texts))
                if old["stdout"] != new["stdout"]
            )
        outputs = texts
        # with tracing on, the first pass only warms up: the untraced and
        # traced passes compared after it then start from the same state
        warmup = bool(plan["trace"]) and not passes
        passes.append({"traced": traced, "warmup": warmup, "commands": commands})
        enough = len(passes) >= (3 if plan["trace"] else 1)
        if enough and time.perf_counter() - start >= plan["seconds"]:
            break
    result = {
        "passes": passes,
        "outputs": outputs,
        "unstable": sorted(unstable),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
