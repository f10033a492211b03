"""Rows of float64 values as decimal text, with no Python call per value.

``rows`` writes the text ``'%.17g' % v`` gives (``shortest=False``, the
CSV emitter) or ``repr(v)`` gives (``shortest=True``, the JSONL emitter)
for every value, byte for byte, as array work on blocks of values.  It
follows Loitsch's Grisu3 (PLDI 2010): a fast exact path that gives up on
any value it cannot decide and leaves it to Python's own formatting.

1. ``|v|`` is scaled by ``10**(16 - E)`` into ``[1e16, 1e17)``.  The power
   of ten is a double-double pair built exactly from integers, and the
   product is exact (Dekker's two-product), so the scaled value ``S`` is
   an integral double plus a small rest, within about 1e-14 of the true
   product.  ``E`` is decided from the unrounded ``S``.
2. ``S`` is rounded to a 17-digit integer.  For ``repr`` the multiple of
   100, else of 10, nearest ``S`` is taken when it lies strictly inside
   ``v``'s rounding interval (half an ulp either side).  The interval is
   under 23 units of the 17th digit wide, so it holds at most one
   multiple of 100, and any shorter digit string is such a multiple.
3. The digits are written through a 4-digit table into four
   little-endian words per value.
4. The words are laid out by the ``%g`` or the ``repr`` rules: fixed or
   scientific, trailing zeros, ``.0`` and ``e+XX``.
5. Every byte not written is zero, and one boolean mask drops them.

Zero has fixed text.  Python formats a value itself when it is outside
``[_LO, _HI]`` (subnormals included) or not finite; when ``repr``'s
interval is not symmetric (``v`` a power of two); or when a rounding,
decade or interval comparison falls within ``_MARGIN`` of its
threshold.  Where the power of ten is an exact double (``|v|`` from 1e-6
to below 1e17) ``S`` is exact and the margin is zero, so only exact ties
and values on an interval's edge are left to Python.
"""

from __future__ import annotations

import functools

import numpy as np

# |v| scaled by the table; the rest is formatted by Python.  Clamped to
# these bounds, the rest stays clear of a decade's ends.
_LO, _HI = 2e-280, 5e279
# the decades E of the table: 10**(16 - E) for E in [_E_MIN, _E_MAX]
_E_MIN, _E_MAX = -282, 281
# distance, in units of the 17th digit, under which a comparison of the
# inexact scaled value (error about 1e-14) is left to Python
_MARGIN = 1e-9
# values laid out at once, so that a block's buffers stay small
_SUB_VALUES = 1 << 13
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_EXPONENT = np.uint64(0x7FF0000000000000)
_MANTISSA = np.uint64((1 << 52) - 1)
# one value's 32 bytes: the sign, "0.000", a zero byte, the 17 digits
# (bytes 7..23, the point inserted after the integer part shifts the rest
# up one byte), "e+123" at 25..29 and the separator at 30..31
_CELL = 32


@functools.cache
def _tables():
    """Built on first use, not at import.

    ``pow10``: for each decade E, the columns ``hi, hi_head, hi_tail,
    lo, margin``, with ``hi + lo`` exactly ``10**(16 - E)``.
    ``digits``: 0..9999 as four ASCII bytes in a little-endian word.
    ``zeros``: the trailing zero digits of 0..9999 (4 for 0).
    ``first``: at ``c + 24``, a little-endian word that keeps its first
    ``c`` bytes (none for ``c <= 0``, all for ``c >= 8``).
    """
    rows = []
    for e in range(_E_MIN, _E_MAX + 1):
        # 10**(16 - e) as num / den; int / int is correctly rounded
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        rows.append((hi, *_split(hi), lo, 0.0 if lo == 0.0 else _MARGIN))
    n = np.arange(10000)
    ascii4 = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    zeros = (n % 10 == 0).astype(np.intp) + (n % 100 == 0) + (n % 1000 == 0) + (n == 0)
    first = [(1 << 8 * min(max(c, 0), 8)) - 1 for c in range(-24, 33)]
    return (
        tuple(np.array(col) for col in zip(*rows)),
        ascii4.astype(np.uint8).view("<u4").ravel().astype(np.uint64),
        zeros,
        np.array(first, dtype=np.uint64),
    )


def _split(a):
    c = a * _SPLIT
    head = c - (c - a)
    return head, a - head


def _scale(a, e, pow10):
    """``a * 10**(16 - e)`` as ``p + r``, ``p`` the rounded product (an
    integral double from 2**53 up) and ``r`` the rest; also the power's
    ``hi`` and the comparison margin (0 where the power is exact)."""
    i = e - _E_MIN
    hi, hi_head, hi_tail, lo, margin = (col[i] for col in pow10)
    p = a * hi
    a_head, a_tail = _split(a)
    err = ((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head) + a_tail * hi_tail
    return p, err + a * lo, hi, margin


def _decimals(v, shortest, pow10):
    """For a flat float64 array: the 17 digits as a 9-digit and an 8-digit
    integer (float64), the decimal exponent of the first digit, and a mask
    of the values left to Python."""
    a = np.abs(v)
    fallback = ~((a >= _LO) & (a <= _HI))  # zero, subnormal, inf, nan
    a = np.fmin(np.fmax(a, _LO), _HI)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r, hi, margin = _scale(a, e, pow10)
    low, high = (p - 1e16) + r, (p - 1e17) + r
    # log10 may miss the decade by one next to a power of ten
    off = np.flatnonzero((low < 0) | (high >= 0))
    if off.size:
        e[off] += np.where(low[off] < 0, -1, 1)
        p[off], r[off], hi[off], margin[off] = _scale(a[off], e[off], pow10)
        low[off], high[off] = (p[off] - 1e16) + r[off], (p[off] - 1e17) + r[off]
    fallback |= (low < margin) | (high >= -margin)
    q = np.rint(r)
    f = r - q  # exact: S = n + f
    fallback |= np.abs(np.abs(f) - 0.5) <= margin
    top, bottom = np.divmod(p.astype(np.int64) + q.astype(np.int64), 10**8)
    top, bottom = top.astype(np.float64), bottom.astype(np.float64)
    if shortest:
        bits = a.view(np.uint64)
        half = (bits & _EXPONENT).view(np.float64) * (2.0**-53 * hi)
        # a power of two has a narrower interval below it than above
        fallback |= (bits & _MANTISSA) == 0
        rem100 = bottom - 100 * np.floor(bottom / 100)
        rem10 = rem100 - 10 * np.floor(rem100 / 10)
        below10, below100 = rem10 + f, rem100 + f  # S less the multiple under it
        up10, up100 = below10 > 5, below100 > 50
        d10, d100 = np.abs(below10 - 10 * up10), np.abs(below100 - 100 * up100)
        fallback |= (np.abs(d10 - half) <= margin) | (np.abs(d100 - half) <= margin)
        fallback |= np.abs(below10 - 5) <= margin  # two multiples of 10 equally near
        in100 = d100 < half
        in10 = (d10 < half) & ~in100
        bottom -= in100 * (rem100 - 100 * up100) + in10 * (rem10 - 10 * up10)
        over = bottom >= 1e8
        top += over
        bottom -= 1e8 * over
    carry = top >= 1e9  # rounded up to 10**17
    top -= 9e8 * carry
    return top, bottom, e + carry, fallback


def _words(v, shortest, tables):
    """``(m, 4)`` little-endian words of text for a flat float64 array,
    zero where no byte is written, and a mask of the values still to be
    formatted."""
    pow10, digits4, zeros4, first = tables
    top, bottom, x, fallback = _decimals(v, shortest, pow10)
    lead = np.floor(top / 1e8)
    rest = top - 1e8 * lead
    g1 = np.floor(rest / 1e4)
    g3 = np.floor(bottom / 1e4)
    g1, g2, g3, g4 = (g.astype(np.intp) for g in (g1, rest - 1e4 * g1, g3, bottom - 1e4 * g3))
    # trailing zero digits of the 16 after the first
    tz = zeros4[g4] + (g4 == 0) * (zeros4[g3] + (g3 == 0) * (zeros4[g2] + (g2 == 0) * zeros4[g1]))
    fixed = (x >= -4) & (x < (16 if shortest else 17))
    whole = fixed & (x >= 0)
    fraction = fixed & ~whole
    # the digits end at ``end``; for repr a whole number keeps its first
    # decimal ("100.0")
    end = np.maximum(17 - tz, whole * (x + 1 + shortest))
    # the point follows digit ``point`` (a "0." prefix has it when -1)
    point = whole * x - fraction
    has_point = (end > point + 1) & ~fraction
    # the fraction starts at byte ``pos`` and moves up one for the point
    pos = 8 + point
    digits = [
        (lead.astype(np.uint64) + np.uint64(ord("0"))) << np.uint64(56),
        digits4[g1] | digits4[g2] << np.uint64(32),
        digits4[g3] | digits4[g4] << np.uint64(32),
    ]
    lead_in = fraction * (1 - x)  # "0." and -x-1 zeros
    prefix = np.uint64(int.from_bytes(b"0.000", "little")) & first[24 + lead_in]
    carried = np.signbit(v) * np.uint64(ord("-")) | prefix << np.uint64(8)
    words = np.empty((len(v), 4), dtype="<u8")
    for w, d in enumerate(digits):
        head = first[24 + pos - 8 * w]
        tail = d & first[31 + end - 8 * w] & ~head
        words[:, w] = (d & head) | (tail << np.uint64(8)) | carried
        carried = tail >> np.uint64(56)
    words[:, 3] = carried
    text = words.view(np.uint8)
    dotted = np.flatnonzero(has_point)
    text[dotted, pos[dotted]] = ord(".")
    sci = np.flatnonzero(~fixed)
    if sci.size:
        mag = np.abs(x[sci])
        # "0htu" shifted to "htu", the hundreds kept only from 100
        keep = np.where(mag >= 100, 0xFFFFFF, 0xFFFF00).astype(np.uint64)
        htu = (digits4[mag] >> np.uint64(8)) & keep
        sign = np.where(x[sci] < 0, ord("-"), ord("+")).astype(np.uint64)
        exp = np.uint64(ord("e")) | sign << np.uint64(8) | htu << np.uint64(16)
        words[sci, 3] |= exp << np.uint64(8)
    # zeros are common (underflowed scores) and their text is fixed
    zero = np.flatnonzero(v == 0.0)
    if zero.size:
        words[zero] = 0
        zero_text = np.uint64(int.from_bytes(b"0.0" if shortest else b"0", "little"))
        words[zero, 0] = np.signbit(v[zero]) * np.uint64(ord("-")) | zero_text << np.uint64(8)
        fallback[zero] = False
    return words, fallback


def rows(labels, scores, head: bytes, mid: bytes, sep: bytes, tail: bytes, shortest: bool) -> bytes:
    """The text of each row ``head + label + mid + v1 + sep + v2 ... + tail``,
    with the labels (positive integers) in decimal, each value as
    ``'%.17g' % v`` gives, or as ``repr(v)`` where ``shortest``, and
    ``sep`` at most two bytes."""
    n, k = scores.shape
    tables = _tables()
    step = max(1, _SUB_VALUES // k)
    left = len(head) + 20 + len(mid)
    sep_word = np.uint64(int.from_bytes(sep, "little") << 48)
    parts = []
    for start in range(0, n, step):
        block = np.ascontiguousarray(scores[start : start + step], dtype=np.float64)
        m = len(block)
        flat = block.ravel()
        words, fallback = _words(flat, shortest, tables)
        words[:, 3] |= sep_word
        text = words.view(np.uint8)
        left_over = np.flatnonzero(fallback)
        if left_over.size:
            python = b"".join(
                (repr(v) if shortest else "%.17g" % v).encode().ljust(30, b"\0")
                for v in flat[left_over].tolist()
            )
            text[left_over, :30] = np.frombuffer(python, np.uint8).reshape(-1, 30)
        buf = np.empty((m, left + k * _CELL + len(tail)), dtype=np.uint8)
        buf[:, : len(head)] = np.frombuffer(head, np.uint8)
        buf[:, len(head) : len(head) + 20] = _label_text(labels[start : start + step], tables[1])
        buf[:, len(head) + 20 : left] = np.frombuffer(mid, np.uint8)
        buf[:, left : left + k * _CELL] = text.reshape(m, k * _CELL)
        buf[:, left + k * _CELL - 2 : left + k * _CELL] = 0  # no separator after the last
        buf[:, left + k * _CELL :] = np.frombuffer(tail, np.uint8)
        parts.append(buf[buf != 0].tobytes())
    return b"".join(parts)


def _label_text(labels, digits4):
    """``(n, 20)`` ASCII digits of positive integers, zero-padded on the
    left with zero bytes."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.empty((len(labels), 5), dtype="<u4")
    for i in range(4, -1, -1):
        labels, group = np.divmod(labels, 10000)
        out[:, i] = digits4[group]
    text = out.view(np.uint8)
    text[:, :-1] *= ~np.logical_and.accumulate(text[:, :-1] == ord("0"), axis=1)
    return text
