"""The benchmark tracer wraps functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_exist():
    # bench/ holds scripts, not a package, so the module is loaded from its path
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for short, functions in tracing.TRACED.items():
        module = importlib.import_module(f"focal_calib.{short}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"focal_calib.{short}.{name}"


def test_thresholds_memo_is_exposed():
    # bench/worker.py clears this memo before each command and the tracer
    # reads its hit counts, so the public function must stay the memo itself
    from focal_calib.thresholds import thresholds

    assert callable(thresholds.cache_clear)
    assert callable(thresholds.cache_info)
