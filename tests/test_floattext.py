"""The vectorized float formatter gives the bytes of '%.17g' and repr."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focal_calib import _floattext


def _formatted(values, shortest):
    """The kernel's text of ``values``, one row, split back into values."""
    scores = np.asarray(values, dtype=np.float64).reshape(1, -1)
    text = _floattext.rows(np.array([7]), scores, b"<", b">", b"|", b"\n", shortest)
    assert text.startswith(b"<7>") and text.endswith(b"\n")
    return text[3:-1].decode().split("|")


def _expected(values, shortest):
    return [repr(float(v)) if shortest else "%.17g" % float(v) for v in values]


def _edge_values():
    tiny = 5e-324
    largest_subnormal = math.nextafter(sys.float_info.min, 0.0)
    values = [0.0, tiny, largest_subnormal, sys.float_info.min, sys.float_info.max]
    for k in range(-323, 309):
        values.append(float(f"1e{k}"))
    for k in range(-1074, 1024):
        values.append(math.ldexp(1.0, k))
    # the repr switch to an exponent at 1e16, the %g one at 1e17, and
    # both switches below 1e-4
    values += [1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1e-4, 1e-5]
    values += [v for x in list(values) for v in (math.nextafter(x, 0), math.nextafter(x, math.inf))]
    # doubles just under a power of ten whose 17-digit rounding carries
    # into the next decade (1e-305, 1e-243, ...)
    carries = [
        v
        for k in range(-307, 309)
        for v in (float(f"1e{k}"), math.nextafter(float(f"1e{k}"), 0.0))
        if ("%.17g" % v).startswith("1e") and Fraction(v) < Fraction(10) ** k
    ]
    assert len(carries) >= 10
    values = np.array([v for v in values + carries if math.isfinite(v)])
    return np.concatenate([values, -values])


EDGE_VALUES = _edge_values()


def test_power_table_is_exact():
    (hi, hi_head, hi_tail, lo, margin), _, _, _ = _floattext._tables()
    for i, e in enumerate(range(_floattext._E_MIN, _floattext._E_MAX + 1)):
        exact = Fraction(10) ** (16 - e)
        assert hi[i] == float(exact) and lo[i] == float(exact - Fraction(hi[i]))
        assert hi_head[i] + hi_tail[i] == hi[i]
        assert margin[i] == (0.0 if Fraction(hi[i]) == exact else _floattext._MARGIN)


@pytest.mark.parametrize("shortest", [False, True])
def test_edge_values_match_python(shortest):
    assert _formatted(EDGE_VALUES, shortest) == _expected(EDGE_VALUES, shortest)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_any_finite_bit_pattern_matches_python(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    if values.size:
        for shortest in (False, True):
            assert _formatted(values, shortest) == _expected(values, shortest)


@pytest.mark.parametrize("shortest", [False, True])
def test_random_values_match_python(shortest):
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [
            rng.dirichlet(np.ones(50), 200).ravel(),
            rng.standard_normal(5000) * 10.0 ** rng.integers(-30, 30, 5000),
            # short decimals, which repr prints with few digits
            [
                float(f"{d}e{e}")
                for d, e in zip(rng.integers(1, 10**6, 3000), rng.integers(-25, 25, 3000))
            ],
        ]
    )
    assert _formatted(values, shortest) == _expected(values, shortest)


@pytest.mark.parametrize("shortest", [False, True])
def test_python_formatting_of_every_value_gives_the_same_bytes(monkeypatch, shortest):
    # no |v| lies in [inf, inf], so every value takes the fallback
    values = np.concatenate([EDGE_VALUES[::7], np.random.default_rng(6).random(300)])
    scores = values[: len(values) // 3 * 3].reshape(-1, 3)
    labels = np.arange(1, len(scores) + 1)
    fast = _floattext.rows(labels, scores, b"", b",", b",", b"\n", shortest)
    monkeypatch.setattr(_floattext, "_LO", math.inf)
    assert _floattext._decimals(values, shortest, _floattext._tables()[0])[3].all()
    assert _floattext.rows(labels, scores, b"", b",", b",", b"\n", shortest) == fast


def test_labels_and_sub_blocks(monkeypatch):
    labels = np.array([1, 9, 10, 99, 100, 9999, 10000, 123456789, 2**62, 5])
    scores = np.random.default_rng(7).random((len(labels), 3))
    expected = "".join(
        f"{label}," + ",".join("%.17g" % v for v in row) + "\n"
        for label, row in zip(labels.tolist(), scores.tolist())
    ).encode()
    for sub_values in (1, 2, 4, 1 << 13):  # fewer values per sub-block than a row has
        monkeypatch.setattr(_floattext, "_SUB_VALUES", sub_values)
        assert _floattext.rows(labels, scores, b"", b",", b",", b"\n", False) == expected


def test_empty_block_is_empty():
    empty = _floattext.rows(np.empty(0, dtype=int), np.empty((0, 4)), b"", b",", b",", b"\n", True)
    assert empty == b""
