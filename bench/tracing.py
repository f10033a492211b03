"""Spans around the calls into each ``focal_calib`` module.

The tracer wraps the public functions listed in ``TRACED`` and rebinds
every name under which a ``focal_calib`` module holds them, so a call is
timed wherever it is made from: the CLI, another module, or a module
calling itself.  It records a span per call (name, duration, the span
that was open when it started, and counts such as bytes read or solver
iterations) in memory and undoes every rebinding on ``uninstall``.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _path_arg(args, kwargs, position: int):
    return kwargs.get("path", args[position] if len(args) > position else None)


def _read_bytes(args, kwargs, result) -> dict:
    return {"bytes_read": _size(_path_arg(args, kwargs, 0))}


def _saved_bytes(args, kwargs, result) -> dict:
    return {"bytes_written": _size(_path_arg(args, kwargs, 1))}


def _written_bytes(args, kwargs, result) -> dict:
    return {"bytes_written": _size(_path_arg(args, kwargs, 0))}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


# module -> {function: recorder of the call's counts, or None}
TRACED = {
    "io": {
        "load_predictions": _read_bytes,
        "save_predictions": _saved_bytes,
        "write_csv": _written_bytes,
    },
    "core": {"recover_posterior_rows": None, "recover_posterior": None},
    "calibrate": {"apply_psi_dataset": None, "scale_dataset": None, "fit_temperature": None},
    "metrics": {"bin_reliability": None, "cw_ece": None},
    "minimizer": {"minimize_risk_inverse": _iterations, "minimize_risk_pg": _iterations},
    "thresholds": {"thresholds": None},
    "verify": {"run_verify": None},
    "synth": {"train_mlp": None, "evaluate_panel": None},
}


class Tracer:
    """Records spans while installed; ``spans`` holds
    ``(name, seconds, parent_name_or_None, extra)`` tuples."""

    def __init__(self):
        self.spans: list[tuple[str, float, str | None, dict]] = []
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extra):
        memo = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            misses = memo().misses if memo else 0
            self._stack.append(name)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                counts = extra(args, kwargs, result) if extra and ok else {}
                if memo:
                    # a memoized call counts as a solve only when it missed
                    solved = memo().misses > misses
                    counts["solved"] = int(solved)
                    counts["solved_s"] = elapsed if solved else 0.0
                self.spans.append((name, elapsed, parent, counts))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("focal_calib")]
        for short, functions in TRACED.items():
            module = sys.modules[f"focal_calib.{short}"]
            for fn_name, extra in functions.items():
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original, extra)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans
